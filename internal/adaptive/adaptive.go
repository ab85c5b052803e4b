package adaptive

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"talus/internal/alloc"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/monitor"
)

// DefaultEpochAccesses is the default epoch length: one reconfiguration
// per 2^20 observed accesses, the software analogue of the paper's 10 ms
// hardware interval (a few accesses per thousand instructions at GHz
// rates lands within an order of magnitude of this).
const DefaultEpochAccesses = 1 << 20

// allocGranules is the allocator grid resolution: capacity/allocGranules
// lines per step (the mix simulator's grid).
const allocGranules = 64

// Config parameterizes the control loop.
type Config struct {
	// EpochAccesses is the reconfiguration interval in observed accesses
	// (all partitions combined); 0 selects DefaultEpochAccesses.
	EpochAccesses int64
	// Allocator divides capacity over the hulls each epoch;
	// nil selects alloc.HillClimbAllocator (optimal on hulls — the
	// paper's point is that Talus makes hill climbing sufficient).
	Allocator alloc.Allocator
	// EpochInterval, when positive, adds a wall-clock epoch trigger: a
	// background ticker drives the same TryLock epoch step the access
	// clock does, so lightly loaded caches still reconfigure on time
	// (the access-count trigger alone waits for EpochAccesses, which an
	// idle serving cache may take minutes to reach). Zero keeps the
	// control loop purely access-driven with no background goroutine.
	// Callers that set this must Close the cache to stop the ticker.
	EpochInterval time.Duration
	// Seed derives the monitors' hash functions.
	Seed uint64

	// Weights gives each partition's objective weight in the allocation
	// Request (see alloc.Request.Weights): a weight-4 partition's saved
	// miss counts four times a weight-1 partition's. nil means uniform —
	// the legacy minimize-total-misses objective, byte-identical to the
	// unweighted stack. Adjustable at runtime via SetWeight.
	Weights []float64
	// MinLines / MaxLines are per-partition allocation floors and caps
	// (see alloc.Request); nil means none. Adjustable at runtime via
	// SetPartitionLines.
	MinLines []int64
	MaxLines []int64
}

func (c *Config) defaults() {
	if c.EpochAccesses <= 0 {
		c.EpochAccesses = DefaultEpochAccesses
	}
	if c.Allocator == nil {
		c.Allocator = alloc.HillClimbAllocator
	}
}

// monSlot is one partition's monitor lane, padded so concurrently
// accessed lanes do not false-share. There is no lane lock: the sliced
// monitor synchronizes internally per slice, and the epoch access count
// is an atomic — steady-state accesses touch no lane-wide mutable state.
type monSlot struct {
	mon      *monitor.SlicedEpochMonitor
	accesses atomic.Int64 // observed this epoch
	_        [64]byte
}

// ControllerState is a snapshot of the control loop's tunables and its
// most recent measurements, served at /v1/control.
type ControllerState struct {
	// Epochs counts epoch steps that measured traffic (no-op epochs on
	// an idle cache are skipped entirely and not counted).
	Epochs int `json:"epochs"`
	// Churn is the last measuring epoch's access-share-weighted
	// normalized L1 distance between successive per-partition curves
	// (see curve.Distance); 0 before the second measuring epoch. A
	// reported signal: nothing in the loop acts on it.
	Churn float64 `json:"churn"`
	// EpochAccesses is the configured epoch budget in accesses.
	EpochAccesses int64 `json:"epoch_accesses"`
	// EpochInterval is the configured wall-clock trigger interval (0
	// without a ticker).
	EpochInterval time.Duration `json:"epoch_interval_ns"`
	// Allocator names the allocation policy.
	Allocator string `json:"allocator"`
	// Allocations is the most recent per-partition allocation in lines.
	Allocations []int64 `json:"allocations"`
	// Weights is the per-partition objective weight vector (nil =
	// uniform). MinLines/MaxLines likewise (nil = unconstrained).
	Weights  []float64 `json:"weights,omitempty"`
	MinLines []int64   `json:"min_lines,omitempty"`
	MaxLines []int64   `json:"max_lines,omitempty"`
	// LastError is the most recent epoch step's allocate or reconfigure
	// failure (the allocation then stands unchanged); empty after a good
	// step.
	LastError string `json:"last_error,omitempty"`
}

// Cache is the adaptive Talus runtime. Construct with New (or the
// convenience builder sim.BuildAdaptiveCache / talus.NewAdaptiveCache).
type Cache struct {
	sc  *core.ShadowedCache
	cfg Config
	n   int

	mons []monSlot

	accTotal  atomic.Int64 // accesses observed since construction
	nextEpoch atomic.Int64 // accTotal threshold triggering the next epoch

	epochMu    sync.Mutex // serializes the epoch step and guards the fields below
	epochs     int
	lastAllocs []int64
	lastCurves []*curve.Curve
	lastErr    error
	churn      float64 // last measuring epoch's churn
	partAcc    []int64 // scratch: per-partition accesses drained this epoch

	// Allocation constraints threaded into each epoch's Request. nil
	// slices stay nil until a setter materializes them, so the uniform
	// configuration builds the exact plain Request of the legacy path.
	weights  []float64
	minLines []int64
	maxLines []int64

	ticker    *time.Ticker  // non-nil iff EpochInterval > 0
	tickStop  chan struct{} // nil without EpochInterval
	tickDone  chan struct{}
	closeOnce sync.Once
}

// New wraps an already-configured ShadowedCache in the control loop and
// programs an initial fair split (ρ = 1 everywhere: plain behaviour until
// the first epoch has measured curves). The inner cache must be safe for
// concurrent use if the Cache will be.
func New(sc *core.ShadowedCache, cfg Config) (*Cache, error) {
	cfg.defaults()
	n := sc.NumLogical()
	budget := sc.Inner().PartitionableCapacity()
	a := &Cache{
		sc:         sc,
		cfg:        cfg,
		n:          n,
		mons:       make([]monSlot, n),
		lastAllocs: make([]int64, n),
		lastCurves: make([]*curve.Curve, n),
		partAcc:    make([]int64, n),
	}
	if cfg.Weights != nil {
		if len(cfg.Weights) != n {
			return nil, fmt.Errorf("adaptive: %d weights for %d partitions", len(cfg.Weights), n)
		}
		a.weights = append([]float64(nil), cfg.Weights...)
	}
	if cfg.MinLines != nil {
		if len(cfg.MinLines) != n {
			return nil, fmt.Errorf("adaptive: %d line floors for %d partitions", len(cfg.MinLines), n)
		}
		a.minLines = append([]int64(nil), cfg.MinLines...)
		if err := checkFloors(a.minLines, budget); err != nil {
			return nil, err
		}
	}
	if cfg.MaxLines != nil {
		if len(cfg.MaxLines) != n {
			return nil, fmt.Errorf("adaptive: %d line caps for %d partitions", len(cfg.MaxLines), n)
		}
		a.maxLines = append([]int64(nil), cfg.MaxLines...)
	}
	for p := range a.mons {
		mon, err := monitor.NewSlicedEpochMonitor(budget, monitor.DefaultRetain, cfg.Seed+uint64(p)*0x9E3779B9, monitor.DefaultMonitorSlices)
		if err != nil {
			return nil, fmt.Errorf("adaptive: partition %d monitor: %w", p, err)
		}
		a.mons[p].mon = mon
	}
	fair, err := alloc.Fair(n, budget, max(budget/allocGranules, 1))
	if err != nil {
		return nil, fmt.Errorf("adaptive: initial fair split: %w", err)
	}
	// Nil curves make every partition fall back to the degenerate single-
	// shadow configuration: a fairly partitioned, Talus-less cache.
	if err := a.sc.Reconfigure(fair, make([]*curve.Curve, n)); err != nil {
		return nil, fmt.Errorf("adaptive: initial reconfigure: %w", err)
	}
	copy(a.lastAllocs, fair)
	a.nextEpoch.Store(cfg.EpochAccesses)
	if cfg.EpochInterval > 0 {
		a.ticker = time.NewTicker(cfg.EpochInterval)
		a.tickStop = make(chan struct{})
		a.tickDone = make(chan struct{})
		go a.tickLoop()
	}
	return a, nil
}

// tickLoop is the wall-clock epoch trigger: every tick it attempts the
// same TryLock epoch step the access clock fires, so reconfiguration
// happens on time even when traffic is too light to reach the epoch
// budget. Runs until Close.
func (a *Cache) tickLoop() {
	defer close(a.tickDone)
	defer a.ticker.Stop()
	for {
		select {
		case <-a.tickStop:
			return
		case <-a.ticker.C:
			if !a.epochMu.TryLock() {
				continue // an access-driven epoch is already running
			}
			a.runEpochLocked()
			a.nextEpoch.Store(a.accTotal.Load() + a.cfg.EpochAccesses)
			a.epochMu.Unlock()
		}
	}
}

// Close stops the wall-clock epoch ticker (waiting for any in-flight
// tick to finish) and is a no-op for caches built without EpochInterval.
// Safe to call multiple times; the datapath remains usable afterwards,
// driven by the access clock alone.
func (a *Cache) Close() error {
	if a.tickStop != nil {
		a.closeOnce.Do(func() {
			close(a.tickStop)
			<-a.tickDone
		})
	}
	return nil
}

// checkPartition validates a caller-supplied partition index once, at
// the API boundary: an out-of-range p would otherwise panic deep inside
// monSlot indexing with a bare bounds error.
func (a *Cache) checkPartition(p int) {
	if p < 0 || p >= a.n {
		panic(fmt.Sprintf("adaptive: partition %d out of range [0,%d)", p, a.n))
	}
}

// Access observes one access on partition p's monitor, routes it through
// the Talus datapath, and reports a hit. Crossing an epoch boundary
// triggers reconfiguration on the calling goroutine. p must be in
// [0, NumLogical()); anything else panics with a descriptive message.
func (a *Cache) Access(addr uint64, p int) bool {
	a.checkPartition(p)
	s := &a.mons[p]
	s.mon.Observe(addr)
	s.accesses.Add(1)
	hit := a.sc.Access(addr, p)
	a.afterAccesses(1)
	return hit
}

// afterAccesses advances the epoch clock and fires the epoch step when
// the interval has elapsed. TryLock keeps the datapath wait-free: if a
// reconfiguration is already running, this access's contribution is
// simply part of the next epoch.
func (a *Cache) afterAccesses(k int64) {
	if a.accTotal.Add(k) < a.nextEpoch.Load() {
		return
	}
	if !a.epochMu.TryLock() {
		return
	}
	defer a.epochMu.Unlock()
	if a.accTotal.Load() < a.nextEpoch.Load() {
		return // another goroutine already ran this epoch
	}
	a.runEpochLocked()
	a.nextEpoch.Store(a.accTotal.Load() + a.cfg.EpochAccesses)
}

// ForceEpoch runs one epoch step immediately regardless of the access
// clock (tests; final-report flushes) and returns its outcome.
func (a *Cache) ForceEpoch() error {
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	a.runEpochLocked()
	a.nextEpoch.Store(a.accTotal.Load() + a.cfg.EpochAccesses)
	return a.lastErr
}

// runEpochLocked is the control loop body, labeled for profiling so
// `make profile-serving` attributes reconfiguration cost separately from
// the datapath. Caller holds epochMu.
func (a *Cache) runEpochLocked() {
	pprof.Do(context.Background(), pprof.Labels("talus", "epoch-step"), func(context.Context) {
		a.epochBody()
	})
}

// epochBody does the actual epoch work. Caller holds epochMu.
func (a *Cache) epochBody() {
	// Drain each lane's epoch access count. A cache-wide idle epoch is
	// skipped outright — no curve extraction, no EWMA decay, no epoch
	// counted: a wall-clock tick on an idle cache must not erode the
	// measured curves toward empty (the counters hold until traffic
	// returns, and Err keeps reporting the last real epoch's outcome).
	var epochAcc int64
	for p := range a.mons {
		a.partAcc[p] = a.mons[p].accesses.Swap(0)
		epochAcc += a.partAcc[p]
	}
	if epochAcc == 0 {
		return
	}
	// Extract each measured partition's EWMA curve. The denominator is
	// shared across partitions — every curve is normalized per
	// kilo-access of the whole cache's epoch stream — so curve heights
	// compare as absolute miss counts and the allocator minimizes
	// (weighted) total misses, the analogue of the CPU simulator's
	// aggregate-MPKI objective. Partitions idle *this epoch* are skipped
	// the same way idle epochs are: their monitors keep accumulating and
	// their last curve stands, so a tenant that pauses does not decay
	// toward zero utility and lose its allocation.
	units := float64(epochAcc)
	budget := a.sc.Inner().PartitionableCapacity()
	var churn float64
	for p := range a.mons {
		if a.partAcc[p] == 0 {
			if a.lastCurves[p] == nil {
				// Never-seen partition: a flat zero curve claims no utility,
				// so the allocator gives it only leftover capacity.
				a.lastCurves[p] = curve.MustNew([]curve.Point{
					{Size: 0, MPKI: 0}, {Size: float64(budget), MPKI: 0},
				})
			}
			continue
		}
		// EpochCurve drains the monitor slices and is serialized by
		// epochMu; racing observers accrue to this epoch or the next.
		c, err := a.mons[p].mon.EpochCurve(units)
		if err == nil {
			// Churn: how far this partition's curve moved since its last
			// measurement, weighted by its share of the epoch's traffic
			// (a first measurement is maximal churn: Distance vs nil = 1).
			churn += float64(a.partAcc[p]) / units * curve.Distance(a.lastCurves[p], c)
			a.lastCurves[p] = c
		} else if a.lastCurves[p] == nil {
			a.lastCurves[p] = curve.MustNew([]curve.Point{
				{Size: 0, MPKI: 0}, {Size: float64(budget), MPKI: 0},
			})
		}
	}
	a.churn = churn

	hulls := core.Convexify(a.lastCurves)
	granule := max(budget/allocGranules, 1)
	allocs, err := a.cfg.Allocator.Allocate(alloc.Request{
		Curves:   hulls,
		Total:    budget,
		Granule:  granule,
		Weights:  a.weights,
		MinLines: a.minLines,
		MaxLines: a.maxLines,
	})
	if err != nil {
		a.lastErr = fmt.Errorf("adaptive: epoch %d allocate: %w", a.epochs, err)
		a.epochs++
		return
	}
	// Reconfigure from the raw curves, not the hulls: Configure's
	// flat-gain check needs the raw curve to collapse already-convex
	// partitions to a single shadow partition (interpolating there pays
	// sampling noise for nothing). The hulls above feed the allocator,
	// which is what reusing them buys.
	if err := a.sc.Reconfigure(allocs, a.lastCurves); err != nil {
		a.lastErr = fmt.Errorf("adaptive: epoch %d reconfigure: %w", a.epochs, err)
		a.epochs++
		return
	}
	copy(a.lastAllocs, allocs)
	a.lastErr = nil
	a.epochs++
}

// SetWeight sets partition p's objective weight for subsequent epochs
// (see alloc.Request.Weights). The weight must be finite and
// non-negative. The first call materializes the weight vector (uniform
// 1s); until then the epoch Request carries nil weights — the exact
// legacy objective.
func (a *Cache) SetWeight(p int, w float64) error {
	a.checkPartition(p)
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("adaptive: weight %g for partition %d (need finite, non-negative)", w, p)
	}
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	if a.weights == nil {
		a.weights = make([]float64, a.n)
		for i := range a.weights {
			a.weights[i] = 1
		}
	}
	a.weights[p] = w
	return nil
}

// checkFloors rejects a floor vector the budget cannot hold: every epoch
// would fail in the allocator and freeze the allocation where it stood.
func checkFloors(minLines []int64, budget int64) error {
	var sum int64
	for _, m := range minLines {
		sum += m
	}
	if sum > budget {
		return fmt.Errorf("adaptive: line floors sum to %d, partitionable capacity %d", sum, budget)
	}
	return nil
}

// SetPartitionLines sets partition p's allocation floor and cap in
// lines for subsequent epochs (see alloc.Request); maxLines 0 means
// unbounded. A floor that would push the floors' sum past the
// partitionable capacity is refused and nothing changes; any other
// infeasible combination (caps summing below the budget) is the
// allocator's to report, through Err and ControllerState.LastError.
func (a *Cache) SetPartitionLines(p int, minLines, maxLines int64) error {
	a.checkPartition(p)
	if minLines < 0 || maxLines < 0 || (maxLines > 0 && maxLines < minLines) {
		return fmt.Errorf("adaptive: bad line bounds [%d, %d] for partition %d", minLines, maxLines, p)
	}
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	floors := make([]int64, a.n)
	copy(floors, a.minLines)
	floors[p] = minLines
	if err := checkFloors(floors, a.sc.Inner().PartitionableCapacity()); err != nil {
		return err
	}
	a.minLines = floors
	if a.maxLines == nil {
		a.maxLines = make([]int64, a.n)
	}
	a.maxLines[p] = maxLines
	return nil
}

// Weights returns a copy of the per-partition weight vector, or nil
// while the objective is uniform.
func (a *Cache) Weights() []float64 {
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	if a.weights == nil {
		return nil
	}
	return append([]float64(nil), a.weights...)
}

// Controller returns a snapshot of the control loop's tunables and its
// most recent measurements.
func (a *Cache) Controller() ControllerState {
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	st := ControllerState{
		Epochs:        a.epochs,
		Churn:         a.churn,
		EpochAccesses: a.cfg.EpochAccesses,
		EpochInterval: max(a.cfg.EpochInterval, 0),
		Allocator:     a.cfg.Allocator.Name(),
		Allocations:   append([]int64(nil), a.lastAllocs...),
	}
	if a.weights != nil {
		st.Weights = append([]float64(nil), a.weights...)
	}
	if a.minLines != nil {
		st.MinLines = append([]int64(nil), a.minLines...)
	}
	if a.maxLines != nil {
		st.MaxLines = append([]int64(nil), a.maxLines...)
	}
	if a.lastErr != nil {
		st.LastError = a.lastErr.Error()
	}
	return st
}

// SetEvictHook installs fn to be called once per line the underlying
// cache evicts, with the line's logical partition and address, and
// reports whether the full cache stack supports eviction notification
// (every layer down to the arrays must). The hook fires on the
// accessing goroutine with a shard lock held: it must be fast and must
// not re-enter the cache. Install it before traffic flows; installing
// or clearing concurrently with accesses is racy.
func (a *Cache) SetEvictHook(fn func(part int, addr uint64)) bool {
	return a.sc.SetEvictHook(fn)
}

// Invalidate drops logical partition p's line for addr, if resident,
// and reports whether one was dropped. Not an access: no monitor
// observation, no stats, no epoch progress, and the eviction hook does
// not fire. Returns false when the underlying cache does not support
// invalidation. p must be in [0, NumLogical()).
func (a *Cache) Invalidate(addr uint64, p int) bool {
	a.checkPartition(p)
	return a.sc.Invalidate(addr, p)
}

// Epochs returns how many epoch steps have measured traffic (idle
// no-op steps are skipped and not counted).
func (a *Cache) Epochs() int {
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	return a.epochs
}

// Allocations returns the most recent per-partition allocation in lines.
func (a *Cache) Allocations() []int64 {
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	out := make([]int64, len(a.lastAllocs))
	copy(out, a.lastAllocs)
	return out
}

// Curve returns partition p's most recently extracted miss curve (misses
// per kilo-access, EWMA over recent epochs), or nil before the first
// epoch with traffic. p must be in [0, NumLogical()).
func (a *Cache) Curve(p int) *curve.Curve {
	a.checkPartition(p)
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	return a.lastCurves[p]
}

// Err returns the most recent epoch step's error (nil when it succeeded).
func (a *Cache) Err() error {
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	return a.lastErr
}

// Config returns partition p's current Talus configuration. p must be
// in [0, NumLogical()).
func (a *Cache) Config(p int) core.Config {
	a.checkPartition(p)
	return a.sc.Config(p)
}

// NumLogical returns the number of software-visible partitions.
func (a *Cache) NumLogical() int { return a.n }

// Monitor exposes partition p's sliced epoch monitor. Identity tests
// compare its merged histograms against a single-monitor baseline fed
// the same stream; production callers have no reason to touch it.
func (a *Cache) Monitor(p int) *monitor.SlicedEpochMonitor {
	a.checkPartition(p)
	return a.mons[p].mon
}

// Shadowed exposes the wrapped Talus runtime (shadow sizes, inner cache).
func (a *Cache) Shadowed() *core.ShadowedCache { return a.sc }

// Allocator returns the configured allocation policy.
func (a *Cache) Allocator() alloc.Allocator { return a.cfg.Allocator }
