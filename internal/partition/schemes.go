// Concrete partitioning schemes: unpartitioned, way, set, and
// Vantage-style fine-grained.

package partition

import "talus/internal/hash"

// --- Unpartitioned ----------------------------------------------------

// None is the unpartitioned baseline: every partition's accesses share the
// whole array, targets are ignored, and victims may come from any way.
// Per-partition occupancy is still tracked for reporting.
type None struct{ base }

// NewNone returns an unpartitioned scheme exposing n partition IDs (used
// only for statistics attribution).
func NewNone(n int) *None { return &None{newBase(n)} }

// Name implements Scheme.
func (s *None) Name() string { return "none" }

// SetIndex implements Scheme: plain hashed indexing.
func (s *None) SetIndex(hashVal uint64, _ int) int { return hash.Reduce(hashVal, s.sets) }

// Candidates implements Scheme: every way is eligible.
func (s *None) Candidates(_, _ int, _ []int32, buf []int) []int {
	return allWays(s.assoc, buf)
}

// SetTargets implements Scheme (targets recorded but not enforced).
func (s *None) SetTargets(sizes []int64) error { return s.storeTargets(sizes) }

// PartitionableFraction implements Scheme.
func (s *None) PartitionableFraction() float64 { return 1.0 }

// GranuleLines implements Scheme.
func (s *None) GranuleLines() int64 { return 1 }

// --- Way partitioning ---------------------------------------------------

// Way implements way partitioning (Albonesi; Chiou et al.): partition p
// owns a contiguous range of ways in every set, so allocations come in
// coarse granules of one way (= sets lines) and low way counts degrade
// associativity — the Assumption 2 violation §VI-B warns about. Lookups
// remain global (a partition can hit in any way); only victim selection is
// restricted to the partition's ways.
type Way struct {
	base
	startWay []int // partition p owns ways [startWay[p], startWay[p+1])
}

// NewWay returns a way-partitioning scheme with n partitions.
func NewWay(n int) *Way { return &Way{base: newBase(n)} }

// Name implements Scheme.
func (s *Way) Name() string { return "way" }

// Configure implements Scheme, defaulting to an even split of ways.
func (s *Way) Configure(sets, assoc int) error {
	if err := s.base.Configure(sets, assoc); err != nil {
		return err
	}
	even := make([]int64, s.n)
	for i := range even {
		even[i] = 1
	}
	s.applyWays(apportion(even, assoc))
	return nil
}

// SetIndex implements Scheme.
func (s *Way) SetIndex(hashVal uint64, _ int) int { return hash.Reduce(hashVal, s.sets) }

// Candidates implements Scheme: only the partition's own ways.
func (s *Way) Candidates(_, p int, _ []int32, buf []int) []int {
	for w := s.startWay[p]; w < s.startWay[p+1]; w++ {
		buf = append(buf, w)
	}
	return buf
}

// SetTargets implements Scheme: apportions the assoc ways across
// partitions proportionally to the requested line counts (coarsening that
// Talus compensates for by recomputing ρ; see core.CoarsenToGranule).
func (s *Way) SetTargets(sizes []int64) error {
	if s.sets == 0 {
		return ErrNotConfigured
	}
	if err := s.storeTargets(sizes); err != nil {
		return err
	}
	s.applyWays(apportion(sizes, s.assoc))
	return nil
}

func (s *Way) applyWays(ways []int) {
	s.startWay = make([]int, s.n+1)
	for i, w := range ways {
		s.startWay[i+1] = s.startWay[i] + w
	}
}

// WaysOf returns the number of ways partition p currently owns.
func (s *Way) WaysOf(p int) int { return s.startWay[p+1] - s.startWay[p] }

// PartitionableFraction implements Scheme.
func (s *Way) PartitionableFraction() float64 { return 1.0 }

// GranuleLines implements Scheme: one way spans every set.
func (s *Way) GranuleLines() int64 { return int64(s.sets) }

// --- Set partitioning ---------------------------------------------------

// Set implements set partitioning (page coloring / reconfigurable caches):
// partition p owns a contiguous range of sets, and its accesses index only
// within that range — exactly the mechanism of the paper's worked example
// (Fig. 2), where the 4 MB Talus cache splits sets 1:5 between shadow
// partitions while accesses split 1:2.
type Set struct {
	base
	startSet []int
}

// NewSet returns a set-partitioning scheme with n partitions.
func NewSet(n int) *Set { return &Set{base: newBase(n)} }

// Name implements Scheme.
func (s *Set) Name() string { return "set" }

// Configure implements Scheme, defaulting to an even split of sets.
func (s *Set) Configure(sets, assoc int) error {
	if err := s.base.Configure(sets, assoc); err != nil {
		return err
	}
	even := make([]int64, s.n)
	for i := range even {
		even[i] = 1
	}
	s.applySets(apportion(even, sets))
	return nil
}

// SetIndex implements Scheme: index within the partition's set range. A
// partition with zero sets maps to set 0 of the range start; Candidates
// will reject the fill.
func (s *Set) SetIndex(hashVal uint64, p int) int {
	count := s.startSet[p+1] - s.startSet[p]
	if count <= 0 {
		return s.startSet[p] % s.sets
	}
	return s.startSet[p] + hash.Reduce(hashVal, count)
}

// Candidates implements Scheme: all ways of the (partition-local) set, or
// none if the partition owns no sets.
func (s *Set) Candidates(_, p int, _ []int32, buf []int) []int {
	if s.startSet[p+1]-s.startSet[p] <= 0 {
		return buf[:0]
	}
	return allWays(s.assoc, buf)
}

// SetTargets implements Scheme. Repartitioning sets remaps addresses, so
// resident lines may become unreachable until evicted; like page
// recoloring, set repartitioning is best done rarely.
func (s *Set) SetTargets(sizes []int64) error {
	if s.sets == 0 {
		return ErrNotConfigured
	}
	if err := s.storeTargets(sizes); err != nil {
		return err
	}
	s.applySets(apportion(sizes, s.sets))
	return nil
}

func (s *Set) applySets(sets []int) {
	s.startSet = make([]int, s.n+1)
	for i, c := range sets {
		s.startSet[i+1] = s.startSet[i] + c
	}
}

// SetsOf returns the number of sets partition p currently owns.
func (s *Set) SetsOf(p int) int { return s.startSet[p+1] - s.startSet[p] }

// PartitionableFraction implements Scheme.
func (s *Set) PartitionableFraction() float64 { return 1.0 }

// GranuleLines implements Scheme: one set holds assoc lines.
func (s *Set) GranuleLines() int64 { return int64(s.assoc) }

// --- Vantage-style fine-grained partitioning ----------------------------

// Vantage models Vantage partitioning (Sanchez & Kozyrakis, ISCA 2011) by
// its contract rather than its microarchitecture: partitions are sized at
// line granularity, sizes are enforced by preferentially evicting from the
// partition most over its target, and a fraction of the cache (the
// unmanaged region, 10% by default) is not guaranteed to any partition.
// This matches what Talus requires (§VI-B): fine-grained allocations with
// capacity determining miss rate, with Talus assuming only 0.9·s of a
// size-s cache is partitionable.
type Vantage struct {
	base
	unmanaged float64
}

// DefaultUnmanagedFraction is the paper's Vantage unmanaged region size.
const DefaultUnmanagedFraction = 0.10

// NewVantage returns a Vantage-style scheme with n partitions and the
// default 10% unmanaged region.
func NewVantage(n int) *Vantage {
	return &Vantage{base: newBase(n), unmanaged: DefaultUnmanagedFraction}
}

// Name implements Scheme.
func (s *Vantage) Name() string { return "vantage" }

// Configure implements Scheme, defaulting targets to an even split of the
// managed region so a freshly built cache caches (zero targets would
// bypass everything under rule 1 of Candidates).
func (s *Vantage) Configure(sets, assoc int) error {
	if err := s.base.Configure(sets, assoc); err != nil {
		return err
	}
	managed := int64(float64(sets*assoc) * (1 - s.unmanaged))
	for i := range s.targets {
		share := managed / int64(s.n)
		if int64(i) < managed%int64(s.n) {
			share++
		}
		s.targets[i] = share
	}
	return nil
}

// SetIndex implements Scheme: global hashed indexing (partitions share all
// sets).
func (s *Vantage) SetIndex(hashVal uint64, _ int) int { return hash.Reduce(hashVal, s.sets) }

// Candidates implements Scheme, enforcing sizes the way Vantage's
// demotion logic does, in priority order:
//
//  1. A zero-target partition never allocates: its fills bypass entirely
//     (in Vantage such lines would enter the unmanaged region and be
//     demoted before any reuse). Talus relies on this when a hull anchors
//     at α = 0, turning the α shadow partition into pure bypass.
//  2. Free ways are always eligible.
//  3. Otherwise the victim comes from the partition that most exceeds its
//     target (occupancy/target ratio) among partitions resident in this
//     set.
//  4. If nobody is over target, any way is eligible and the replacement
//     policy decides. This is the unmanaged-region slack, and it also
//     absorbs set-conflict pressure: when several at-quota partitions
//     collide in a hot set, the globally oldest line leaves, spreading
//     conflict misses evenly instead of pinning them on one partition
//     (Vantage's high-associativity zcache does the equivalent).
func (s *Vantage) Candidates(_, p int, owners []int32, buf []int) []int {
	if s.targets[p] <= 0 {
		return buf[:0] // rule 1: zero-size partitions bypass
	}
	for w, o := range owners { // rule 2: free ways
		if o < 0 {
			buf = append(buf, w)
		}
	}
	if len(buf) > 0 {
		return buf
	}
	// Rule 3: most over-quota resident partition. Overage occ/target is
	// ranked by integer cross-multiplication — no division on the miss
	// path. Products fit int easily (both factors are line counts).
	occ, targets := s.occ, s.targets
	victim, vOcc, vTgt := -1, int64(0), int64(1)
	vZero := false // victim has a zero target: maximal overage class
	for _, o := range owners {
		q := int(o)
		if q == victim {
			continue
		}
		oc, t := occ[q], targets[q]
		if t <= 0 {
			// Any occupancy over a zero target is maximal overage; rank
			// zero-target partitions among themselves by occupancy.
			if oc > 0 && (!vZero || oc > vOcc) {
				victim, vOcc, vTgt, vZero = q, oc, 1, true
			}
			continue
		}
		if vZero || oc <= t { // over-quota means occ > target
			continue
		}
		if oc*vTgt > vOcc*t {
			victim, vOcc, vTgt = q, oc, t
		}
	}
	if victim < 0 {
		return allWays(len(owners), buf) // rule 4: unmanaged slack
	}
	for w, o := range owners {
		if int(o) == victim {
			buf = append(buf, w)
		}
	}
	return buf
}

// SetTargets implements Scheme.
func (s *Vantage) SetTargets(sizes []int64) error {
	if s.sets == 0 {
		return ErrNotConfigured
	}
	return s.storeTargets(sizes)
}

// PartitionableFraction implements Scheme: only the managed region's
// capacity is guaranteed.
func (s *Vantage) PartitionableFraction() float64 { return 1 - s.unmanaged }

// GranuleLines implements Scheme.
func (s *Vantage) GranuleLines() int64 { return 1 }

// --- Futility-Scaling-style partitioning ---------------------------------

// Futility models Futility Scaling (Wang & Chen, MICRO 2014) by its
// contract: fine-grained line-level partitioning like Vantage, but with
// *no unmanaged region* — the whole cache is strictly partitionable. The
// paper notes (§VI-B) that using Talus with Futility Scaling avoids
// Vantage's s′ = 0.9·s capacity complication; this scheme exists to
// demonstrate exactly that (see the ablation experiment).
type Futility struct {
	Vantage
}

// NewFutility returns a Futility-Scaling-style scheme with n partitions.
func NewFutility(n int) *Futility {
	f := &Futility{Vantage{base: newBase(n), unmanaged: 0}}
	return f
}

// Name implements Scheme.
func (s *Futility) Name() string { return "futility" }
