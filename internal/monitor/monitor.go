package monitor

import (
	"fmt"
	"math"

	"talus/internal/cache"
	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/partition"
	"talus/internal/policy"
)

// rateToThreshold converts a sampling fraction to a 64-bit hash threshold.
func rateToThreshold(rate float64) uint64 {
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * float64(1<<63) * 2)
}

// stackWalk performs one MRU-first LRU stack access on a single set's tag
// array: hit moves the tag to MRU and returns its depth; miss inserts at
// MRU (growing the valid count up to ways, silently dropping the LRU tag
// once full) and returns depth -1.
func stackWalk(tags []uint64, n, ways int, addr uint64) (depth, newN int) {
	for d := 0; d < n; d++ {
		if tags[d] == addr {
			copy(tags[1:d+1], tags[:d])
			tags[0] = addr
			return d, n
		}
	}
	if n < ways {
		n++
	}
	m := n - 1
	copy(tags[1:m+1], tags[:m])
	tags[0] = addr
	return -1, n
}

// stackPoints converts one array's sampled LRU stack counters to
// full-stream miss-curve points: (0, all-miss) plus one point per way
// depth, the deepest at modeledCap lines. kiloInstr is the number of
// kilo-units the counters were accumulated over.
func stackPoints(accesses int64, hitCtr []int64, ways int, rate float64, modeledCap int64, kiloInstr float64) []curve.Point {
	if kiloInstr <= 0 || accesses == 0 {
		return nil
	}
	scale := 1 / rate / kiloInstr
	total := float64(accesses)
	pts := make([]curve.Point, 0, ways+1)
	pts = append(pts, curve.Point{Size: 0, MPKI: total * scale})
	wayLines := float64(modeledCap) / float64(ways)
	cumHits := 0.0
	for d := 0; d < ways; d++ {
		cumHits += float64(hitCtr[d])
		pts = append(pts, curve.Point{
			Size: wayLines * float64(d+1),
			MPKI: (total - cumHits) * scale,
		})
	}
	return pts
}

// Monitor geometry. The paper's hardware UMON is 16 sets × 64 ways (1K
// lines); these software monitors use 64 sets × 64 ways, and the extended
// monitor keeps the paper's 4× LLC coverage but with 64 ways at rate/4
// instead of 16 ways at rate/16. Both changes preserve the monitoring
// *algorithm* and coverage while reducing the per-set Poisson noise that
// smears cliff positions — noise hardware tolerates by averaging over
// much longer (10 ms) intervals than short simulated epochs allow. See
// DESIGN.md §7.
const (
	umonWays       = 64
	umonSets       = 64
	umonCoarseWays = 64
	coverageFactor = 4
)

// maxSampleRate caps any one array's sampling rate. The hardware UMON's
// rate (~1024/LLC) is minuscule; only toy simulated LLCs push the fixed
// 64×64 geometry toward rate 1, where the "sampled" array degenerates
// into walking a 64-way LRU set on every single access — the dominant
// term of the monitor's datapath cost at small scales. Rather than pay
// it, arrayGeometry sheds sets until the rate is back under this cap:
// the array models the same capacity with the same way granularity,
// just from a 4×-thinner — and 4×-cheaper — sample of the stream.
const maxSampleRate = 0.25

// arrayGeometry sizes one monitor array for a modeled capacity: the
// standard 64-set geometry, halving sets while the implied sampling
// rate exceeds maxSampleRate (production-scale LLCs are unaffected).
func arrayGeometry(modeledLines int64, ways int) (sets int, rate float64) {
	if modeledLines < 1 {
		modeledLines = 1
	}
	sets = umonSets
	rate = float64(sets*ways) / float64(modeledLines)
	for sets > 1 && rate > maxSampleRate {
		sets /= 2
		rate = float64(sets*ways) / float64(modeledLines)
	}
	if rate > 1 {
		rate = 1
	}
	return sets, rate
}

// arraySpec is one bank array's derived configuration: geometry, sampling
// rate/threshold, and the capacity its deepest way-point models.
type arraySpec struct {
	sets, ways int
	rate       float64
	thresh     uint64
	modeled    int64
}

// bankSpecs derives the three arrays' specs (sub, fine, coarse) for an
// LLC of llcLines. Together they span LLC/4 to 4× the LLC: the
// conventional monitor (fine), the paper's extended-coverage monitor
// (coarse, §VI-C "Miss curve coverage"), and a sub-range monitor applying
// the same Theorem-4 trick downward — sampling 4× more of the stream to
// model LLC/4 with 4× finer way granularity. The sub-range array matters
// in partitioned caches, where a partition's allocation is often a small
// fraction of the LLC and the conventional monitor's LLC/64 granularity
// would smear any cliff there.
func bankSpecs(llcLines int64) [3]arraySpec {
	var specs [3]arraySpec
	modeled := [3]int64{llcLines / coverageFactor, llcLines, coverageFactor * llcLines}
	ways := [3]int{umonWays, umonWays, umonCoarseWays}
	for i := range specs {
		sets, rate := arrayGeometry(modeled[i], ways[i])
		specs[i] = arraySpec{
			sets: sets, ways: ways[i], rate: rate,
			thresh:  rateToThreshold(rate),
			modeled: int64(float64(sets*ways[i]) / rate),
		}
	}
	return specs
}

// Bank-level hash seeds: the sampling hash every array's threshold is
// compared against, and the shared set-index mix each array reduces to
// its own set count.
const (
	bankSampleSeed = 0x5EED
	bankSetSeed    = 0xB5E75
)

// bankSetValue computes the bank's shared 64-bit set value for an
// address: a nonlinear Mix64, deliberately NOT an H3 member. The
// sampling filter (hv < thresh) is an H3 hash of the same address;
// H3 is GF(2)-linear, so if the set index were too, an unlucky seed
// pair could make the set-index bits linear functions of the
// sampling-comparison bits — systematically starving or flooding
// individual sets with sampled addresses and smearing measured cliffs.
// Every array reduces this one value to its own power-of-two set count,
// so array set indices are nested bit prefixes of it — the property the
// epoch-sliced monitor partitions sets on.
func bankSetValue(addr, setSeed uint64) uint64 {
	return hash.Mix64(addr ^ setSeed)
}

// Rates returns the bank's three sampling rates (sub, fine, coarse) for
// an LLC of llcLines, without building a monitor — the validation
// oracle's error table (internal/oracle) reports monitor accuracy per
// sampling rate.
func Rates(llcLines int64) [3]float64 {
	specs := bankSpecs(llcLines)
	return [3]float64{specs[0].rate, specs[1].rate, specs[2].rate}
}

// assembleCurve merges the three arrays' point sets (sub, fine, coarse)
// into one monotone curve: sub-range points up to LLC/4, fine points up
// to the LLC size, coarse points beyond.
func assembleCurve(subPts, finePts, coarsePts []curve.Point) (*curve.Curve, error) {
	if subPts == nil && finePts == nil && coarsePts == nil {
		return nil, fmt.Errorf("monitor: no observations")
	}
	pts := make([]curve.Point, 0, len(subPts)+len(finePts)+len(coarsePts))
	max := 0.0
	for _, p := range subPts {
		pts = append(pts, p)
		if p.Size > max {
			max = p.Size
		}
	}
	for _, p := range finePts {
		if p.Size > max {
			pts = append(pts, p)
			max = p.Size
		}
	}
	for _, p := range coarsePts {
		if p.Size > max {
			pts = append(pts, p)
			max = p.Size
		}
	}
	// Enforce monotone non-increasing MPKI with a running max from the
	// right. Clamping left-to-right would accumulate sampling noise into
	// an artificial downward ramp across plateaus — gradient that would
	// let hill climbing "climb" a cliff that is really flat. Taking the
	// suffix max instead keeps noisy plateaus flat and leaves genuine
	// drops (cliffs) intact.
	for i := len(pts) - 2; i >= 0; i-- {
		if pts[i].MPKI < pts[i+1].MPKI {
			pts[i].MPKI = pts[i+1].MPKI
		}
	}
	return curve.New(pts)
}

// PolicyMonitor models one point of a non-stack policy's miss curve: a
// small simulated cache running the policy on a sampled stream. By
// Theorem 4, a monitor of monLines lines at sampling rate r models a
// cache of monLines/r lines.
type PolicyMonitor struct {
	c        *cache.SetAssoc
	thresh   uint64
	h        *hash.H3
	rate     float64
	modeled  int64
	accesses int64
	misses   int64
}

// NewPolicyMonitor builds a monitor modeling modeledLines of cache using a
// monLines-line array with the given policy.
func NewPolicyMonitor(modeledLines, monLines int64, assoc int, factory policy.Factory, seed uint64) (*PolicyMonitor, error) {
	if monLines > modeledLines {
		monLines = modeledLines // never sample above rate 1
	}
	rate := float64(monLines) / float64(modeledLines)
	c, err := cache.NewSetAssoc(monLines, assoc, partition.NewNone(1), factory, seed)
	if err != nil {
		return nil, err
	}
	return &PolicyMonitor{
		c:       c,
		thresh:  rateToThreshold(rate),
		h:       hash.NewH3(seed^0x9017, 64),
		rate:    rate,
		modeled: modeledLines,
	}, nil
}

// Observe feeds one access.
func (pm *PolicyMonitor) Observe(addr uint64) {
	pm.ObserveHashed(addr, pm.h.Hash(addr))
}

// ObserveHashed feeds one access with a precomputed sampling hash, letting
// a monitor bank hash each address once. Sharing the hash nests the
// monitors' sampled sets (rate r2 < r1 samples a subset of r1's
// addresses), which Theorem 4 is indifferent to: each subset is still a
// statistically self-similar stream.
func (pm *PolicyMonitor) ObserveHashed(addr, hashVal uint64) {
	if hashVal >= pm.thresh {
		return
	}
	pm.accesses++
	if !pm.c.Access(addr, 0) {
		pm.misses++
	}
}

// Point returns this monitor's miss-curve point.
func (pm *PolicyMonitor) Point(kiloInstr float64) curve.Point {
	if pm.accesses == 0 || kiloInstr <= 0 {
		return curve.Point{Size: float64(pm.modeled), MPKI: 0}
	}
	return curve.Point{
		Size: float64(pm.modeled),
		MPKI: float64(pm.misses) / pm.rate / kiloInstr,
	}
}

// ResetCounters starts a new interval.
func (pm *PolicyMonitor) ResetCounters() {
	pm.accesses = 0
	pm.misses = 0
	pm.c.ResetStats()
}

// MultiMonitor is a bank of PolicyMonitors sampling at different rates to
// assemble a full miss curve for a policy without the stack property
// (§VI-C "Other replacement policies"). The paper notes this costs 256 KB
// per core for 64 points — impractical in hardware, but exactly what is
// needed to show Talus works on SRRIP (Fig. 9).
type MultiMonitor struct {
	mons []*PolicyMonitor
}

// NewMultiMonitor builds points monitors with modeled sizes spaced
// linearly up to maxLines.
func NewMultiMonitor(maxLines int64, points int, monLines int64, assoc int, factory policy.Factory, seed uint64) (*MultiMonitor, error) {
	if points < 2 {
		return nil, fmt.Errorf("monitor: need at least 2 points, got %d", points)
	}
	mm := &MultiMonitor{mons: make([]*PolicyMonitor, points)}
	rng := hash.NewSplitMix64(seed)
	for i := 0; i < points; i++ {
		modeled := int64(math.Round(float64(maxLines) * float64(i+1) / float64(points)))
		if modeled < monLines {
			modeled = monLines
		}
		pm, err := NewPolicyMonitor(modeled, monLines, assoc, factory, rng.Next())
		if err != nil {
			return nil, err
		}
		mm.mons[i] = pm
	}
	return mm, nil
}

// Observe feeds one access to every monitor, hashing once.
func (mm *MultiMonitor) Observe(addr uint64) {
	h := mm.mons[0].h.Hash(addr)
	for _, pm := range mm.mons {
		pm.ObserveHashed(addr, h)
	}
}

// Curve assembles the measured points, prepending an all-miss point at
// size 0 estimated from the densest monitor's access rate.
func (mm *MultiMonitor) Curve(kiloInstr float64) (*curve.Curve, error) {
	pts := make([]curve.Point, 0, len(mm.mons)+1)
	// Size-0 point: every access misses.
	apki := float64(mm.mons[0].accesses) / mm.mons[0].rate / kiloInstr
	pts = append(pts, curve.Point{Size: 0, MPKI: apki})
	lastSize := 0.0
	for _, pm := range mm.mons {
		p := pm.Point(kiloInstr)
		if p.Size <= lastSize {
			continue // collapsed small sizes clamp to monLines; keep first
		}
		lastSize = p.Size
		pts = append(pts, p)
	}
	return curve.New(pts)
}

// ResetCounters starts a new interval on all monitors.
func (mm *MultiMonitor) ResetCounters() {
	for _, pm := range mm.mons {
		pm.ResetCounters()
	}
}
