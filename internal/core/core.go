package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/hull"
)

// DefaultMargin is the paper's empirically determined sampling-rate safety
// margin: increasing ρ by 5% builds in slack so that statistical deviations
// from Assumptions 1–3 do not push the β partition back up the cliff
// (§VI-B, "Deviation from assumptions").
const DefaultMargin = 0.05

// Config describes the Talus configuration of a single logical partition
// of size TargetSize: the hull anchor points, the sampling rate, and the
// two shadow partition sizes. Produced by Configure.
type Config struct {
	TargetSize float64 // s: the logical partition's size, in lines

	Alpha float64 // α: hull point emulated by the first shadow partition
	Beta  float64 // β: hull point emulated by the second shadow partition

	RhoIdeal float64 // ρ from Eq. 4, before the safety margin
	Rho      float64 // sampling rate actually programmed (ρ·(1+margin), clamped)

	S1 float64 // first shadow partition size (ρ_ideal·α)
	S2 float64 // second shadow partition size (s − s1)

	MAlpha float64 // m(α): miss rate at the α anchor
	MBeta  float64 // m(β): miss rate at the β anchor

	// PredictedMPKI is Eq. 5's interpolated miss rate, i.e. the convex
	// hull evaluated at TargetSize. Talus is predictable by design: the
	// partitioning algorithm can rely on this value (§VII-B).
	PredictedMPKI float64

	// Degenerate reports that no interpolation is needed: s coincides
	// with a hull vertex or lies outside the measured range, so a single
	// partition (ρ = 1) of size s is already on the hull.
	Degenerate bool
}

// Errors returned by Configure and ShadowedCache.
var (
	ErrNilCurve = errors.New("core: nil or empty miss curve")
	ErrBadSize  = errors.New("core: target size must be positive and finite")
)

// Configure computes the Talus shadow-partition configuration for a
// partition of size s (in lines) under the given miss curve, applying the
// given sampling-rate safety margin (use DefaultMargin for the paper's 5%;
// 0 disables it). It implements Theorem 6: α and β are the hull points
// bracketing s.
func Configure(m *curve.Curve, s float64, margin float64) (Config, error) {
	if m == nil || m.NumPoints() == 0 {
		return Config{}, ErrNilCurve
	}
	if !(s > 0) || math.IsInf(s, 0) || math.IsNaN(s) {
		return Config{}, fmt.Errorf("%w: got %g", ErrBadSize, s)
	}
	h := hull.Lower(m)
	cfg := configureOnHull(h, s, margin)
	// When the hull barely improves on the raw curve at s (flat or
	// already-convex regions), interpolation buys nothing but still pays
	// sampling noise and Assumption-2 error (associativity loss on way
	// partitioning). Fall back to a single partition there.
	if !cfg.Degenerate {
		raw := m.Eval(s)
		if raw-cfg.PredictedMPKI <= 0.02*raw+0.01 {
			cfg = Config{
				TargetSize: s,
				Alpha:      s, Beta: s,
				RhoIdeal: 1, Rho: 1,
				S1: s, S2: 0,
				MAlpha: raw, MBeta: raw,
				PredictedMPKI: raw,
				Degenerate:    true,
			}
		}
	}
	return cfg, nil
}

func configureOnHull(h *curve.Curve, s, margin float64) Config {
	alpha, beta, ok := hull.Neighbors(h, s)
	if !ok {
		// On a hull vertex or outside the measured range: single
		// partition, all accesses sampled into it.
		mpki := h.Eval(s)
		return Config{
			TargetSize: s,
			Alpha:      s, Beta: s,
			RhoIdeal: 1, Rho: 1,
			S1: s, S2: 0,
			MAlpha: mpki, MBeta: mpki,
			PredictedMPKI: mpki,
			Degenerate:    true,
		}
	}
	rho := (beta.Size - s) / (beta.Size - alpha.Size) // Eq. 4
	s1 := rho * alpha.Size                            // Eq. 3
	s2 := s - s1
	applied := rho * (1 + margin)
	if applied > 1 {
		applied = 1
	}
	// Eq. 5: the interpolated (hull) miss rate.
	pred := rho*alpha.MPKI + (1-rho)*beta.MPKI
	return Config{
		TargetSize: s,
		Alpha:      alpha.Size, Beta: beta.Size,
		RhoIdeal: rho, Rho: applied,
		S1: s1, S2: s2,
		MAlpha: alpha.MPKI, MBeta: beta.MPKI,
		PredictedMPKI: pred,
	}
}

// CoarsenToGranule adjusts a Config for a partitioning scheme that can
// only allocate in multiples of granule lines (e.g., way partitioning,
// where a granule is one way). Way partitioning "can somewhat egregiously
// violate Assumption 2" (§VI-B): the coarsened shadow sizes no longer
// match the math, so Talus recomputes the sampling rate from the final
// coarsened allocation, ρ = s1/α, keeping the α partition's emulated size
// exact and letting β absorb the rounding.
func (c Config) CoarsenToGranule(granule float64) Config {
	if c.Degenerate || granule <= 1 {
		return c
	}
	if c.Alpha <= 0 {
		// The hull anchors at size 0: the α shadow partition emulates a
		// zero-size cache (pure bypass), so it needs no space at any
		// granularity and ρ stays as computed.
		c.S1 = 0
		c.S2 = c.TargetSize
		return c
	}
	s1 := math.Round(c.S1/granule) * granule
	if s1 <= 0 {
		s1 = granule // the α shadow partition must exist to be sampled into
	}
	if s1 >= c.TargetSize {
		s1 = c.TargetSize - granule
		if s1 <= 0 {
			// Cannot fit two partitions at this granularity: degenerate.
			c.S1, c.S2 = c.TargetSize, 0
			c.Rho, c.RhoIdeal = 1, 1
			c.Degenerate = true
			return c
		}
	}
	rho := s1 / c.Alpha
	if rho > 1 {
		rho = 1
	}
	c.S1 = s1
	c.S2 = c.TargetSize - s1
	c.RhoIdeal = rho
	c.Rho = math.Min(1, rho*(1+DefaultMargin))
	return c
}

// EmulatedSizes returns the cache sizes the two shadow partitions emulate
// under the *applied* sampling rate (s1/ρ and s2/(1−ρ)), which is what the
// hardware actually realizes after the safety margin. With margin 0 these
// equal (α, β) exactly.
func (c Config) EmulatedSizes() (ea, eb float64) {
	if c.Degenerate || c.Rho >= 1 {
		return c.TargetSize, 0
	}
	return c.S1 / c.Rho, c.S2 / (1 - c.Rho)
}

// Convexify is the Talus software pre-processing step (Fig. 7a): it
// replaces each partition's measured miss curve with its convex hull, so
// the system's partitioning algorithm — whatever it may be — can safely
// assume convexity. Talus then realizes the promised performance via
// shadow partitioning.
func Convexify(curves []*curve.Curve) []*curve.Curve {
	out := make([]*curve.Curve, len(curves))
	for i, c := range curves {
		if c == nil || c.NumPoints() == 0 {
			out[i] = c
			continue
		}
		out[i] = hull.Lower(c)
	}
	return out
}

// InterpolatedMPKI evaluates the convex hull of m at size s: the miss rate
// Talus promises (and Theorem 6 guarantees) at that size.
func InterpolatedMPKI(m *curve.Curve, s float64) float64 {
	return hull.Lower(m).Eval(s)
}

// PartitionedCache is the slice of cache functionality the Talus runtime
// needs from the underlying partitioning scheme. The concrete
// implementations live in internal/cache and internal/partition; Talus is
// agnostic to which is used (way, set, Vantage-style, or idealized —
// §VII-B, Fig. 8).
type PartitionedCache interface {
	// Access performs one access for the given (shadow) partition and
	// reports whether it hit.
	Access(addr uint64, part int) bool
	// SetPartitionSizes sets the target size, in lines, of every
	// partition. len(sizes) must equal NumPartitions.
	SetPartitionSizes(sizes []int64) error
	// NumPartitions returns the number of hardware partitions.
	NumPartitions() int
	// Capacity returns the cache's total capacity in lines.
	Capacity() int64
	// PartitionableCapacity returns the capacity the scheme can strictly
	// enforce: the full capacity for way/set/ideal partitioning, but only
	// the 90% managed region for Vantage (§VI-B, "Talus on Vantage").
	PartitionableCapacity() int64
	// Granule returns the allocation granularity in lines: 1 for
	// fine-grained schemes, lines-per-way for way partitioning.
	Granule() int64
}

// ShadowedCache is the Talus runtime: it exposes N logical partitions,
// backed by 2N shadow partitions of an underlying partitioned cache, and
// routes each access through a per-logical-partition H3 sampler with an
// 8-bit limit register (Fig. 7b). Reconfigure implements the
// post-processing step: it consumes the partitioning algorithm's desired
// allocations plus the measured miss curves and programs shadow sizes and
// sampling rates.
//
// # Concurrency
//
// The sampling datapath is goroutine-safe by construction: samplers are
// immutable H3 matrices plus an atomic limit register, exactly like the
// hardware, so Access may run from any number of goroutines — including
// concurrently with Reconfigure — provided the inner cache is itself safe
// for concurrent access (wrap it in a cache.ShardedCache to get that).
// Over a goroutine-unsafe inner cache (plain SetAssoc), the ShadowedCache
// is exactly as single-threaded as its inner cache, which is what the
// sequential simulator uses.
// Reconfigure, Config, and ShadowSizes serialize on an internal mutex.
type ShadowedCache struct {
	inner      PartitionedCache
	numLogical int
	samplers   []*hash.Sampler

	mu      sync.Mutex // guards configs, shadow, and Reconfigure itself
	configs []Config
	margin  float64
	shadow  []int64 // scratch: per-shadow-partition sizes
}

// NewShadowedCache wraps inner, which must expose exactly 2×numLogical
// partitions. Samplers are seeded deterministically from seed.
func NewShadowedCache(inner PartitionedCache, numLogical int, margin float64, seed uint64) (*ShadowedCache, error) {
	if numLogical <= 0 {
		return nil, fmt.Errorf("core: numLogical must be positive, got %d", numLogical)
	}
	if inner.NumPartitions() != 2*numLogical {
		return nil, fmt.Errorf("%w: inner has %d partitions for %d logical",
			ErrPartitionCount, inner.NumPartitions(), numLogical)
	}
	sc := &ShadowedCache{
		inner:      inner,
		numLogical: numLogical,
		samplers:   make([]*hash.Sampler, numLogical),
		configs:    make([]Config, numLogical),
		margin:     margin,
		shadow:     make([]int64, 2*numLogical),
	}
	seeds := hash.NewSplitMix64(seed)
	for i := range sc.samplers {
		sc.samplers[i] = hash.NewSampler(seeds.Next())
		sc.samplers[i].SetRate(1) // start degenerate: everything to α
	}
	return sc, nil
}

// ErrPartitionCount reports a mismatch between logical and shadow
// partition counts.
var ErrPartitionCount = errors.New("core: shadow partition count mismatch")

// Access routes one access for logical partition p through its sampler
// into the α (2p) or β (2p+1) shadow partition and reports a hit.
func (t *ShadowedCache) Access(addr uint64, logical int) bool {
	shadow := 2 * logical
	if !t.samplers[logical].ToAlpha(addr) {
		shadow++
	}
	return t.inner.Access(addr, shadow)
}

// EvictNotifier is the optional eviction-reporting extension of
// PartitionedCache (structurally cache.EvictNotifier — restated so core
// keeps no dependency on the cache package): SetEvictHook installs a
// callback fired once per evicted line with its partition and address,
// and reports whether the cache supports it end to end.
type EvictNotifier interface {
	SetEvictHook(fn func(part int, addr uint64)) bool
}

// Invalidator is the optional invalidation extension of
// PartitionedCache (structurally cache.Invalidator): Invalidate drops
// the line holding addr for the given partition, if resident, without
// counting an access or firing the eviction hook.
type Invalidator interface {
	Invalidate(addr uint64, part int) bool
}

// SetEvictHook installs fn over the inner cache, translating the inner
// cache's shadow partition ids back to logical ones (shadow 2p and 2p+1
// are both logical p), and reports whether the inner cache supports
// eviction notification. The hook inherits the inner cache's calling
// context — typically under a shard lock on the accessing goroutine —
// and must not re-enter the cache. Implements EvictNotifier.
func (t *ShadowedCache) SetEvictHook(fn func(part int, addr uint64)) bool {
	n, ok := t.inner.(EvictNotifier)
	if !ok {
		return false
	}
	if fn == nil {
		return n.SetEvictHook(nil)
	}
	return n.SetEvictHook(func(shadow int, addr uint64) { fn(shadow/2, addr) })
}

// Invalidate drops logical partition p's line for addr, if resident,
// and reports whether one was dropped. The line may sit in either
// shadow partition: the sampler steering addr today need not be the one
// that filled it (rates move across reconfigurations), so both α (2p)
// and β (2p+1) are tried. Implements Invalidator.
func (t *ShadowedCache) Invalidate(addr uint64, p int) bool {
	inv, ok := t.inner.(Invalidator)
	if !ok {
		return false
	}
	// A line is resident in at most one shadow partition, but try both:
	// under set partitioning the set index depends on the partition, so
	// each shadow has its own candidate set.
	a := inv.Invalidate(addr, 2*p)
	b := inv.Invalidate(addr, 2*p+1)
	return a || b
}

// NumLogical returns the number of software-visible partitions.
func (t *ShadowedCache) NumLogical() int { return t.numLogical }

// Inner returns the wrapped partitioned cache.
func (t *ShadowedCache) Inner() PartitionedCache { return t.inner }

// Config returns the current configuration of logical partition p.
func (t *ShadowedCache) Config(p int) Config {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.configs[p]
}

// Reconfigure programs the shadow partitions from the allocator's desired
// logical sizes and the per-partition miss curves, applying Theorem 6 with
// the configured safety margin, coarsening to the scheme's granule, and
// pushing sizes and sampling rates down to hardware. Curves may be raw
// measurements; hulls are computed here. See transition for the in-place
// reconfiguration safety argument.
func (t *ShadowedCache) Reconfigure(allocations []int64, curves []*curve.Curve) error {
	if len(allocations) != t.numLogical || len(curves) != t.numLogical {
		return fmt.Errorf("core: Reconfigure wants %d allocations and curves, got %d and %d",
			t.numLogical, len(allocations), len(curves))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	granule := float64(t.inner.Granule())
	// Stage 1: compute every partition's new configuration into locals.
	// Pure math, and nothing is committed until the hardware push
	// succeeds, so an error cannot leave Config/ShadowSizes reporting a
	// configuration the datapath never applied.
	configs := make([]Config, t.numLogical)
	shadow := make([]int64, 2*t.numLogical)
	for p := 0; p < t.numLogical; p++ {
		alloc := float64(allocations[p])
		cfg, err := Configure(curves[p], alloc, t.margin)
		if err != nil {
			// No usable curve: fall back to a single partition of the
			// allocated size, which is plain (Talus-less) behaviour.
			cfg = Config{TargetSize: alloc, Alpha: alloc, Beta: alloc,
				RhoIdeal: 1, Rho: 1, S1: alloc, Degenerate: true}
		}
		cfg = cfg.CoarsenToGranule(granule)
		configs[p] = cfg
		s1 := int64(math.Round(cfg.S1))
		if s1 > allocations[p] {
			s1 = allocations[p]
		}
		shadow[2*p] = s1
		shadow[2*p+1] = allocations[p] - s1
	}
	return t.transition(configs, shadow)
}

// transition applies a computed configuration to the live datapath:
// partition size targets first, sampler rates second. The ordering
// matters under concurrent traffic — a sampler's new rate may steer more
// of the stream toward a shadow partition that is growing, and the
// growth target must already be programmed when that traffic arrives, or
// the scheme would evict the new arrivals against the stale (smaller)
// target. The reverse transient is benign: accesses routed by the old
// rate into a partition that just shrank merely age out as the scheme
// converges to the new targets. If the inner cache rejects the sizes,
// nothing is committed: samplers, Config, and ShadowSizes keep the old
// configuration, which is still the one the datapath runs.
//
// No residency is flushed at any point: the sampler's H3 matrix is
// immutable and its limit register is threshold-monotone, so when ρ
// shrinks the new α sampled set is a strict subset of the old one
// (hash(addr) < limit′ < limit). Lines resident in a shadow partition
// keep their owner accounting (partition.Scheme occupancy moves only on
// fill/evict); lines whose addresses re-route simply stop being
// refreshed and fall out of the old partition at the replacement
// policy's pace — the same gradual convergence hardware exhibits when
// the limit register is rewritten between accesses.
func (t *ShadowedCache) transition(configs []Config, shadow []int64) error {
	if err := t.inner.SetPartitionSizes(shadow); err != nil {
		return err
	}
	copy(t.configs, configs)
	copy(t.shadow, shadow)
	for p := 0; p < t.numLogical; p++ {
		t.samplers[p].SetRate(configs[p].Rho)
	}
	return nil
}

// ShadowSizes returns the most recently programmed shadow partition sizes
// (2 entries per logical partition: α then β).
func (t *ShadowedCache) ShadowSizes() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int64, len(t.shadow))
	copy(out, t.shadow)
	return out
}
