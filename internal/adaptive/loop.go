package adaptive

import (
	"fmt"
	"sync/atomic"

	"talus/internal/alloc"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/monitor"
)

// allocGranules is the allocator grid resolution: capacity/allocGranules
// lines per step.
const allocGranules = 64

// monSlot is one partition's monitor lane, padded so concurrently
// accessed lanes do not false-share. The monitor takes its own lock for
// sampled accesses, and the epoch access count is an atomic.
type monSlot struct {
	mon      *monitor.SlicedEpochMonitor
	accesses atomic.Int64 // observed this epoch
	_        [64]byte
}

// Loop is the epoch step that the serving Cache and the multi-program
// simulator (sim.RunMix) share: per-partition monitors and epoch access
// counts, each partition's last curve, and the churn. Observe is safe
// for concurrent use; the caller serializes Step, Curve and Churn.
type Loop struct {
	lanes  []monSlot
	acc    []int64 // scratch: per-partition accesses drained by Step
	curves []*curve.Curve
	churn  float64
}

// NewLoop builds n partitions' monitors for a cache of monitorLines
// lines, partition p's seeded with seed + p·0x9E3779B9.
func NewLoop(n int, monitorLines int64, seed uint64) (*Loop, error) {
	l := &Loop{lanes: make([]monSlot, n), acc: make([]int64, n), curves: make([]*curve.Curve, n)}
	for p := range l.lanes {
		mon, err := monitor.NewSlicedEpochMonitor(monitorLines, monitor.DefaultRetain, seed+uint64(p)*0x9E3779B9, 1)
		if err != nil {
			return nil, fmt.Errorf("adaptive: partition %d monitor: %w", p, err)
		}
		l.lanes[p].mon = mon
	}
	return l, nil
}

// Observe records one access by partition p.
func (l *Loop) Observe(addr uint64, p int) {
	s := &l.lanes[p]
	s.mon.Observe(addr)
	s.accesses.Add(1)
}

// Step closes an epoch and allocates req.Total lines with a. An epoch
// with no access is skipped (ok false): nothing decays. Otherwise every
// busy partition's monitor closes with the whole epoch's accesses as the
// unit, so curve heights compare as miss counts. A partition idle this
// epoch, or with no sample yet, keeps its last curve or a flat zero one.
// a runs on req with the curves (hulled when hull is set) and a Granule
// of Total/64. curves are the raw curves, owned by the Loop.
func (l *Loop) Step(a alloc.Allocator, hull bool, req alloc.Request) (allocs []int64, curves []*curve.Curve, ok bool, err error) {
	var epochAcc int64
	for p := range l.lanes {
		l.acc[p] = l.lanes[p].accesses.Swap(0)
		epochAcc += l.acc[p]
	}
	if epochAcc == 0 {
		return nil, nil, false, nil
	}
	units := float64(epochAcc)
	l.churn = 0
	for p := range l.lanes {
		if l.acc[p] > 0 {
			if c, err := l.lanes[p].mon.EpochCurve(units); err == nil {
				// Churn weights how far the curve moved by the partition's
				// share of the traffic (a first curve moved by 1).
				l.churn += float64(l.acc[p]) / units * curve.Distance(l.curves[p], c)
				l.curves[p] = c
			}
		}
		if l.curves[p] == nil {
			l.curves[p] = curve.MustNew([]curve.Point{{Size: 0, MPKI: 0}, {Size: float64(req.Total), MPKI: 0}})
		}
	}
	req.Curves = l.curves
	if hull {
		req.Curves = core.Convexify(l.curves)
	}
	req.Granule = max(req.Total/allocGranules, 1)
	allocs, err = a.Allocate(req)
	return allocs, l.curves, true, err
}

// Curve returns partition p's last curve: nil before the first step
// that measured traffic, then flat zero until p's monitor has a sample.
func (l *Loop) Curve(p int) *curve.Curve { return l.curves[p] }

// Churn returns the last measuring epoch's churn (ControllerState.Churn).
func (l *Loop) Churn() float64 { return l.churn }
