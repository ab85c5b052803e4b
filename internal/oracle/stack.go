package oracle

import (
	"fmt"
	"sort"

	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/workload"
)

// StackSim is an exact Mattson stack-distance LRU simulator: one pass
// over an access stream yields the true LRU miss count at every cache
// size at once. For each access it computes the reuse distance — the
// number of distinct other lines touched since that line's previous
// access — and by the LRU stack property the access hits in a cache of
// S lines iff its distance is < S.
//
// Distances come from an order-statistic structure, a Fenwick tree over
// access-time slots: each line's most recent access occupies one live
// slot, so the distance of a reuse at previous time t0 is the number of
// live slots after t0 (live total − prefix(t0)), an O(log N) query.
// Slots are append-only with periodic compaction, so memory stays
// O(distinct lines), not O(stream length). Total cost is O(N·log M)
// for N accesses over M distinct lines.
type StackSim struct {
	last map[uint64]int32 // line → its live slot (1-based)
	bit  []int64          // Fenwick tree over slots; bit[0] unused
	t    int32            // highest slot in use
	hist []int64          // hist[d] = reuses at distance d
	cold int64            // first-touch accesses (miss at every size)
	n    int64            // total accesses
}

// NewStackSim returns an empty simulator.
func NewStackSim() *StackSim {
	return &StackSim{last: make(map[uint64]int32), bit: make([]int64, 1)}
}

// Access feeds one line address.
func (s *StackSim) Access(addr uint64) {
	// Compact first, while every last entry still names a live slot;
	// mid-access the reused line's old slot is dead but still mapped.
	if int(s.t) >= 4*len(s.last)+4096 {
		s.compact()
	}
	s.n++
	if t0, ok := s.last[addr]; ok {
		d := int64(len(s.last)) - s.prefix(t0)
		if d >= int64(len(s.hist)) {
			s.hist = append(s.hist, make([]int64, d+1-int64(len(s.hist)))...)
		}
		s.hist[d]++
		s.add(t0, -1)
	} else {
		s.cold++
	}
	s.appendSlot()
	s.last[addr] = s.t
}

// prefix returns the number of live slots with index ≤ i.
func (s *StackSim) prefix(i int32) int64 {
	var sum int64
	for ; i > 0; i -= i & -i {
		sum += s.bit[i]
	}
	return sum
}

// add applies delta at slot i (i ≤ s.t).
func (s *StackSim) add(i int32, delta int64) {
	for ; int(i) <= int(s.t); i += i & -i {
		s.bit[i] += delta
	}
}

// appendSlot extends the tree by one live slot at index t+1. A Fenwick
// node i covers the range (i−lowbit(i), i], so the new node's value is
// 1 (the new slot) plus the prefix sum over the rest of its range —
// computable from the existing tree, which is what makes append-only
// growth sound where naive zero-extension would not be.
func (s *StackSim) appendSlot() {
	i := s.t + 1
	low := i & -i
	val := int64(1) + s.prefix(i-1) - s.prefix(i-low)
	if int(i) >= len(s.bit) {
		s.bit = append(s.bit, 0)
	}
	s.bit[i] = val
	s.t = i
}

// compact renumbers the live slots to 1..M in time order and rebuilds
// the tree, reclaiming the dead slots left behind by reuses.
func (s *StackSim) compact() {
	type ent struct {
		slot int32
		addr uint64
	}
	live := make([]ent, 0, len(s.last))
	for a, t := range s.last {
		live = append(live, ent{t, a})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].slot < live[j].slot })
	s.bit = s.bit[:1]
	for i := range s.bit {
		s.bit[i] = 0
	}
	s.t = 0
	for _, e := range live {
		s.appendSlot()
		s.last[e.addr] = s.t
	}
}

// Accesses returns the number of accesses fed so far.
func (s *StackSim) Accesses() int64 { return s.n }

// Distinct returns the number of distinct lines seen (= cold misses).
func (s *StackSim) Distinct() int64 { return s.cold }

// MaxDistance returns the largest observed reuse distance plus one: the
// smallest cache size at which every reuse hits.
func (s *StackSim) MaxDistance() int64 { return int64(len(s.hist)) }

// Misses returns the exact number of LRU misses a cache of size lines
// would have incurred over the fed stream (cold misses included).
func (s *StackSim) Misses(size int64) int64 {
	var hits int64
	lim := size
	if lim > int64(len(s.hist)) {
		lim = int64(len(s.hist))
	}
	for d := int64(0); d < lim; d++ {
		hits += s.hist[d]
	}
	return s.n - hits
}

// Curve returns the exact miss curve over the given size grid (strictly
// increasing, positive sizes), prepending the all-miss point at size 0.
// kiloUnits divides raw miss counts into curve units: pass n/1000 for
// misses per kilo-access, or instructions/1000 for MPKI.
func (s *StackSim) Curve(sizes []int64, kiloUnits float64) (*curve.Curve, error) {
	if s.n == 0 {
		return nil, fmt.Errorf("oracle: no accesses")
	}
	if kiloUnits <= 0 {
		return nil, fmt.Errorf("oracle: kiloUnits %g must be positive", kiloUnits)
	}
	// One cumulative pass makes each grid point O(1).
	cum := make([]int64, len(s.hist)+1)
	for d, h := range s.hist {
		cum[d+1] = cum[d] + h
	}
	hitsBelow := func(size int64) int64 {
		if size > int64(len(s.hist)) {
			size = int64(len(s.hist))
		}
		if size < 0 {
			size = 0
		}
		return cum[size]
	}
	pts := make([]curve.Point, 0, len(sizes)+1)
	pts = append(pts, curve.Point{Size: 0, MPKI: float64(s.n) / kiloUnits})
	for _, size := range sizes {
		if size <= 0 {
			continue
		}
		pts = append(pts, curve.Point{
			Size: float64(size),
			MPKI: float64(s.n-hitsBelow(size)) / kiloUnits,
		})
	}
	return curve.New(pts)
}

// SteadyCurve is Curve computed over reuses only: cold (first-touch)
// misses are excluded, which makes the result directly comparable to
// steady-state closed forms (Analytic) that model an infinite stream
// with no compulsory misses.
func (s *StackSim) SteadyCurve(sizes []int64, kiloUnits float64) (*curve.Curve, error) {
	c, err := s.Curve(sizes, kiloUnits)
	if err != nil {
		return nil, err
	}
	cold := float64(s.cold) / kiloUnits
	pts := c.Points()
	for i := range pts {
		pts[i].MPKI -= cold
		if pts[i].MPKI < 0 {
			pts[i].MPKI = 0
		}
	}
	return curve.New(pts)
}

// FromPattern runs n accesses of p through a fresh simulator with a
// deterministic RNG. It consumes p: pass a freshly built pattern to
// measure a stream from its start.
func FromPattern(p workload.Pattern, n int64, seed uint64) *StackSim {
	s := NewStackSim()
	rng := hash.NewSplitMix64(seed)
	for i := int64(0); i < n; i++ {
		s.Access(p.Next(rng))
	}
	return s
}
