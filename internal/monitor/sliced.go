// SlicedEpochMonitor: epoch-driven EWMA curve extraction over the
// monitor bank, contention-free. Each epoch the hit counters decay by a
// retention factor and the matching denominator — the effective number
// of kilo-units observed — decays in lockstep, so the extracted curve is
// always a consistent EWMA of the recent stream. "Units" are whatever
// the caller normalizes miss rates by: the CPU simulator passes
// instructions (curves in MPKI); the adaptive cache runtime passes
// accesses (curves in misses per kilo-access). The curve's shape — and
// therefore every Talus and allocator decision — is identical either
// way; only the y-axis scale differs.
//
// One set of tag arrays behind one lock would serialize every sampled
// access, which makes the monitor the shared-state bottleneck of the
// adaptive hot path. This type partitions the bank's *sets* into
// power-of-two slices, each behind its own mutex: an access locks only
// the slice that owns its set, and slices accumulate raw per-epoch
// counters that are merged into central EWMA accumulators inside the
// epoch step (which the adaptive runtime already serializes under
// epochMu). One slice is the sequential case, the one the offline
// profilers (sim.ProfileCurve, oracle.CompareMonitor) build.
//
// The partitioning leans on a property of the bank's shared set-index
// hash: every array's set count is a power of two and hash.Reduce is
// multiply-shift, so an array's set index is the top log2(sets) bits of
// the shared 64-bit set value. Slice index = the top log2(nSlices) bits —
// a *prefix* of every array's set index — so slice i owns a contiguous
// aligned block of sets in all three arrays at once, and an address's
// slice is computable before touching any array.
//
// The slice count is a lock-domain count and nothing else: histograms,
// sampled counts and curves are bit-identical at every slice count
// (pinned by TestSlicedMatchesEpoch), because of three invariants:
//   - sampling decisions do not depend on the slice count: the sampling
//     and set-mix seeds and the per-array thresholds come from the seed
//     and bankSpecs alone;
//   - each global set's MRU stack lives in exactly one slice and is
//     updated by stackWalk under that slice's lock, so per-set state is
//     identical whenever per-set access order is;
//   - slices hold only raw int64 counters for the current epoch — int64
//     addition is exact and commutative, so the drain's merge order
//     cannot change the totals — and the EWMA decay (the only lossy
//     step) is applied exclusively to the central accumulators.
package monitor

import (
	"fmt"
	"sync"

	"talus/internal/curve"
	"talus/internal/hash"
)

// DefaultRetain is the default EWMA retention factor: counters keep half
// their weight each epoch (a one-epoch half-life), the behaviour the
// phase-adaptation tests were tuned against.
const DefaultRetain = 0.5

// DefaultMonitorSlices is the default slice count: enough to spread
// sampled traffic from a typical shard/goroutine count, small enough
// that the smallest bank array (≥ 8 sets at any realistic LLC size)
// still gets at least one set per slice.
const DefaultMonitorSlices = 8

// sliceArray is one bank array's segment owned by a single slice: the
// aligned block of localSets = sets/nSlices consecutive global sets,
// plus this slice's raw counters for the current epoch.
type sliceArray struct {
	thresh    uint64
	sets      int // the array's GLOBAL set count
	localMask int // localSets - 1; local set = globalSet & localMask
	ways      int
	tags      [][]uint64 // per local set, MRU-first
	sizes     []int
	hitCtr    []int64 // raw hits this epoch, by LRU depth
	misses    int64
	accesses  int64
}

// monSlice is one lock domain: a mutex plus each array's set segment,
// padded so neighbouring slices do not false-share.
type monSlice struct {
	mu  sync.Mutex
	arr [3]sliceArray
	_   [64]byte
}

// arrayAcc is one array's central accumulator: the EWMA-decayed
// counters the curve is read from.
type arrayAcc struct {
	hitCtr   []int64
	misses   int64
	accesses int64
}

// SlicedEpochMonitor is a per-epoch EWMA curve monitor whose Observe is
// safe to call concurrently. EpochCurve and
// HistogramSnapshot must be externally serialized with each other (the
// adaptive runtime's epochMu does this), but may run concurrently with
// observers: an access that races the drain lands in either this epoch
// or the next, never nowhere and never twice.
type SlicedEpochMonitor struct {
	h         *hash.H3
	setSeed   uint64
	maxThresh uint64
	nSlices   int
	slices    []monSlice
	specs     [3]arraySpec
	acc       [3]arrayAcc
	retain    float64
	effUnits  float64
	llc       int64
}

// NewSlicedEpochMonitor builds a sliced epoch monitor for an LLC (or
// partition budget) of llcLines. retain is the EWMA retention factor in
// (0, 1); anything else selects DefaultRetain. nSlices ≤ 0 selects
// DefaultMonitorSlices; the count is rounded down to a power of two and
// clamped so the smallest array keeps at least one set per slice.
func NewSlicedEpochMonitor(llcLines int64, retain float64, seed uint64, nSlices int) (*SlicedEpochMonitor, error) {
	if llcLines <= 0 {
		return nil, fmt.Errorf("monitor: bad LLC size %d", llcLines)
	}
	if retain <= 0 || retain >= 1 {
		retain = DefaultRetain
	}
	if nSlices <= 0 {
		nSlices = DefaultMonitorSlices
	}
	specs := bankSpecs(llcLines)
	minSets := specs[0].sets
	for _, sp := range specs[1:] {
		if sp.sets < minSets {
			minSets = sp.sets
		}
	}
	if nSlices > minSets {
		nSlices = minSets
	}
	for nSlices&(nSlices-1) != 0 {
		nSlices &= nSlices - 1 // round down to a power of two
	}
	s := &SlicedEpochMonitor{
		h:       hash.NewH3(seed^bankSampleSeed, 64),
		setSeed: hash.Mix64(seed ^ bankSetSeed),
		nSlices: nSlices,
		slices:  make([]monSlice, nSlices),
		specs:   specs,
		retain:  retain,
		llc:     llcLines,
	}
	for _, sp := range specs {
		if sp.thresh > s.maxThresh {
			s.maxThresh = sp.thresh
		}
	}
	for i := range s.acc {
		s.acc[i].hitCtr = make([]int64, specs[i].ways)
	}
	for si := range s.slices {
		for i, sp := range specs {
			localSets := sp.sets / nSlices
			a := &s.slices[si].arr[i]
			a.thresh = sp.thresh
			a.sets = sp.sets
			a.localMask = localSets - 1
			a.ways = sp.ways
			a.tags = make([][]uint64, localSets)
			for t := range a.tags {
				a.tags[t] = make([]uint64, sp.ways)
			}
			a.sizes = make([]int, localSets)
			a.hitCtr = make([]int64, sp.ways)
		}
	}
	return s, nil
}

// Slices returns the effective slice count after clamping.
func (s *SlicedEpochMonitor) Slices() int { return s.nSlices }

// sliceOf returns the slice owning an address's sets, from the shared
// set value.
func (s *SlicedEpochMonitor) sliceOf(sv uint64) int {
	return hash.Reduce(sv, s.nSlices)
}

// SampledSlice reports whether addr passes the bank's sampling filter
// and, if so, which slice owns its sets — exported so stack-level
// identity tests can pre-partition concurrent streams by lock domain
// (streams confined to distinct slices keep every set's access order
// deterministic under any interleaving).
func (s *SlicedEpochMonitor) SampledSlice(addr uint64) (slice int, sampled bool) {
	if s.h.Hash(addr) >= s.maxThresh {
		return 0, false
	}
	return s.sliceOf(bankSetValue(addr, s.setSeed)), true
}

// Observe feeds one pre-sampling access, locking only the owning slice.
// Safe for concurrent use.
func (s *SlicedEpochMonitor) Observe(addr uint64) {
	hv := s.h.Hash(addr)
	if hv >= s.maxThresh {
		return
	}
	sv := bankSetValue(addr, s.setSeed)
	sl := &s.slices[s.sliceOf(sv)]
	sl.mu.Lock()
	sl.observe(addr, hv, sv)
	sl.mu.Unlock()
}

// observe fans one sampled access out to the slice's array segments.
// Caller holds sl.mu.
func (sl *monSlice) observe(addr, hv, sv uint64) {
	for i := range sl.arr {
		a := &sl.arr[i]
		if hv >= a.thresh {
			continue
		}
		set := hash.Reduce(sv, a.sets) & a.localMask
		a.accesses++
		d, n := stackWalk(a.tags[set], a.sizes[set], a.ways, addr)
		a.sizes[set] = n
		if d >= 0 {
			a.hitCtr[d]++
		} else {
			a.misses++
		}
	}
}

// drain merges every slice's raw epoch counters into the central
// accumulators and zeroes them, visiting slices in index order (order
// cannot affect the totals — int64 addition — but determinism keeps the
// merge auditable).
func (s *SlicedEpochMonitor) drain() {
	for si := range s.slices {
		sl := &s.slices[si]
		sl.mu.Lock()
		for i := range sl.arr {
			a := &sl.arr[i]
			acc := &s.acc[i]
			for d, h := range a.hitCtr {
				if h != 0 {
					acc.hitCtr[d] += h
					a.hitCtr[d] = 0
				}
			}
			acc.misses += a.misses
			acc.accesses += a.accesses
			a.misses, a.accesses = 0, 0
		}
		sl.mu.Unlock()
	}
}

// EpochCurve closes the current epoch: drains the slices, accounts
// unitsThisEpoch, extracts the combined miss curve from the EWMA'd
// accumulators, then decays accumulators and denominator for the next
// epoch. The returned curve is in misses per kilo-unit; an error means
// no sampled access has been seen yet, and the epoch still advances.
// Must be externally serialized with other EpochCurve/HistogramSnapshot
// calls; concurrent observers are fine.
func (s *SlicedEpochMonitor) EpochCurve(unitsThisEpoch float64) (*curve.Curve, error) {
	s.drain()
	s.effUnits += unitsThisEpoch
	ki := s.effUnits / 1000
	var pts [3][]curve.Point
	for i := range s.acc {
		sp := s.specs[i]
		pts[i] = stackPoints(s.acc[i].accesses, s.acc[i].hitCtr, sp.ways, sp.rate, sp.modeled, ki)
	}
	c, err := assembleCurve(pts[0], pts[1], pts[2])
	for i := range s.acc {
		a := &s.acc[i]
		for d := range a.hitCtr {
			a.hitCtr[d] = int64(float64(a.hitCtr[d]) * s.retain)
		}
		a.misses = int64(float64(a.misses) * s.retain)
		a.accesses = int64(float64(a.accesses) * s.retain)
	}
	s.effUnits *= s.retain
	return c, err
}

// HistogramSnapshot drains pending slice counters and returns copies of
// the three arrays' accumulated hit histograms in bank order (sub, fine,
// coarse) plus their sampled access counts — the state the slice-count
// identity tests compare. Serialize with EpochCurve.
func (s *SlicedEpochMonitor) HistogramSnapshot() (hists [3][]int64, accesses [3]int64) {
	s.drain()
	for i := range s.acc {
		hists[i] = append([]int64(nil), s.acc[i].hitCtr...)
		accesses[i] = s.acc[i].accesses
	}
	return hists, accesses
}
