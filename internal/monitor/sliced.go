// SlicedEpochMonitor: epoch-driven EWMA curve extraction over the
// monitor bank. Each epoch the hit counters decay by a retention factor
// and the matching denominator — the effective number of kilo-units
// observed — decays in lockstep, so the extracted curve is always a
// consistent EWMA of the recent stream. "Units" are whatever the caller
// normalizes miss rates by: the CPU simulator passes instructions
// (curves in MPKI); the adaptive cache runtime passes accesses (curves
// in misses per kilo-access). The curve's shape — and therefore every
// Talus and allocator decision — is identical either way; only the
// y-axis scale differs.
//
// The bank has one lock. A sampled Observe takes it once, walks the
// three arrays' sets and adds raw counts straight into the accumulators;
// EpochCurve takes it to read and decay them. Unsampled accesses (all
// but a few percent at realistic sizes) return before the lock. On the
// 2-CPU benchmark, splitting the sets into per-slice locks moved no
// end-to-end metric (EXPERIMENTS.md, "One lock per access").
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

// bankArray is one bank array's state (its geometry is the matching
// arraySpec): its sets' MRU-first tag stacks and its accumulated
// counters. Raw counts are added as accesses arrive and the EWMA decay
// is applied once per epoch, so between epochs the counters are the
// decayed history plus this epoch's exact counts.
type bankArray struct {
	tags     [][]uint64 // per set, MRU-first
	sizes    []int
	hitCtr   []int64 // hits by LRU depth
	accesses int64
}

// SlicedEpochMonitor is a per-epoch EWMA curve monitor whose Observe is
// safe to call concurrently. EpochCurve and HistogramSnapshot may run
// concurrently with observers: a racing access lands in either this
// epoch or the next, never nowhere and never twice.
type SlicedEpochMonitor struct {
	h         *hash.H3
	setSeed   uint64
	maxThresh uint64
	specs     [3]arraySpec
	retain    float64

	mu       sync.Mutex // guards arr and effUnits
	arr      [3]bankArray
	effUnits float64
}

// NewSlicedEpochMonitor builds an epoch monitor for an LLC (or partition
// budget) of llcLines. retain is the EWMA retention factor in (0, 1);
// anything else selects DefaultRetain. nSlices is ignored: the bank has
// one lock, and the argument stays only because the benchmark module
// passes it.
func NewSlicedEpochMonitor(llcLines int64, retain float64, seed uint64, nSlices int) (*SlicedEpochMonitor, error) {
	if llcLines <= 0 {
		return nil, fmt.Errorf("monitor: bad LLC size %d", llcLines)
	}
	if retain <= 0 || retain >= 1 {
		retain = DefaultRetain
	}
	specs := bankSpecs(llcLines)
	s := &SlicedEpochMonitor{
		h:       hash.NewH3(seed^bankSampleSeed, 64),
		setSeed: hash.Mix64(seed ^ bankSetSeed),
		specs:   specs,
		retain:  retain,
	}
	for i, sp := range specs {
		s.maxThresh = max(s.maxThresh, sp.thresh)
		a := &s.arr[i]
		a.tags = make([][]uint64, sp.sets)
		for t := range a.tags {
			a.tags[t] = make([]uint64, sp.ways)
		}
		a.sizes = make([]int, sp.sets)
		a.hitCtr = make([]int64, sp.ways)
	}
	return s, nil
}

// Observe feeds one pre-sampling access. Safe for concurrent use.
func (s *SlicedEpochMonitor) Observe(addr uint64) {
	hv := s.h.Hash(addr)
	if hv >= s.maxThresh {
		return
	}
	sv := bankSetValue(addr, s.setSeed)
	s.mu.Lock()
	for i := range s.arr {
		sp, a := &s.specs[i], &s.arr[i]
		if hv >= sp.thresh {
			continue
		}
		set := hash.Reduce(sv, sp.sets)
		a.accesses++
		d, n := stackWalk(a.tags[set], a.sizes[set], sp.ways, addr)
		a.sizes[set] = n
		if d >= 0 {
			a.hitCtr[d]++
		}
	}
	s.mu.Unlock()
}

// EpochCurve closes the current epoch: accounts unitsThisEpoch, extracts
// the combined miss curve from the EWMA'd counters, then decays counters
// and denominator for the next epoch. The returned curve is in misses
// per kilo-unit; an error means no sampled access has been seen yet, and
// the epoch still advances. Safe beside observers; callers serialize
// EpochCurve calls with each other so each closes its own epoch.
func (s *SlicedEpochMonitor) EpochCurve(unitsThisEpoch float64) (*curve.Curve, error) {
	var pts [3][]curve.Point
	s.mu.Lock()
	s.effUnits += unitsThisEpoch
	ki := s.effUnits / 1000
	for i := range s.arr {
		sp, a := &s.specs[i], &s.arr[i]
		pts[i] = stackPoints(a.accesses, a.hitCtr, sp.ways, sp.rate, sp.modeled, ki)
		for d := range a.hitCtr {
			a.hitCtr[d] = int64(float64(a.hitCtr[d]) * s.retain)
		}
		a.accesses = int64(float64(a.accesses) * s.retain)
	}
	s.effUnits *= s.retain
	s.mu.Unlock()
	return assembleCurve(pts[0], pts[1], pts[2])
}

// HistogramSnapshot returns copies of the three arrays' accumulated hit
// histograms in bank order (sub, fine, coarse) plus their sampled access
// counts.
func (s *SlicedEpochMonitor) HistogramSnapshot() (hists [3][]int64, accesses [3]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.arr {
		hists[i] = append([]int64(nil), s.arr[i].hitCtr...)
		accesses[i] = s.arr[i].accesses
	}
	return hists, accesses
}
