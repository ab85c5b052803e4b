package alloc

import (
	"errors"
	"fmt"

	"talus/internal/curve"
)

// ErrBadInput reports invalid allocation inputs.
var ErrBadInput = errors.New("alloc: bad input")

// HillClimb allocates total lines among the partitions by repeatedly
// granting one granule to the partition whose miss curve drops the most
// for it. This is the paper's "trivial linear-time for-loop": optimal when
// every curve is convex, and demonstrably poor on cliffs (it sees zero
// marginal utility across a plateau and never crosses it). It is
// WeightedHillClimb on the plain request.
func HillClimb(curves []*curve.Curve, total, granule int64) ([]int64, error) {
	return WeightedHillClimb(NewRequest(curves, total, granule))
}

// Lookahead implements UCP's Lookahead algorithm: at each step, every
// partition proposes the extension (any number of granules) maximizing its
// marginal utility *per granule*; the best proposal wins its whole
// extension. This lets the allocator leap across plateaus to reach cliffs
// — at quadratic cost, and with the all-or-nothing allocations that hurt
// fairness (§VII-D). It is WeightedLookahead on the plain request.
func Lookahead(curves []*curve.Curve, total, granule int64) ([]int64, error) {
	return WeightedLookahead(NewRequest(curves, total, granule))
}

// Fair returns equal allocations (total/n, rounded to granules, residue to
// the lowest indices): the paper's fair-partitioning policy for
// homogeneous workloads (Fig. 13).
func Fair(n int, total, granule int64) ([]int64, error) {
	if n <= 0 || total < 0 || granule <= 0 {
		return nil, fmt.Errorf("%w: n %d total %d granule %d", ErrBadInput, n, total, granule)
	}
	out := make([]int64, n)
	granules := total / granule
	for i := range out {
		share := granules / int64(n)
		if int64(i) < granules%int64(n) {
			share++
		}
		out[i] = share * granule
	}
	out[0] += total - granules*granule
	return out, nil
}

// OptimalDP computes the misses-minimizing allocation exactly by dynamic
// programming over the granule grid. O(n·B²) time, used as ground truth
// in tests and ablations. It is WeightedOptimalDP on the plain request.
func OptimalDP(curves []*curve.Curve, total, granule int64) ([]int64, error) {
	return WeightedOptimalDP(NewRequest(curves, total, granule))
}

// TotalMPKI evaluates the aggregate MPKI of an allocation under the given
// curves (the allocator's objective function).
func TotalMPKI(curves []*curve.Curve, allocation []int64) float64 {
	sum := 0.0
	for i, c := range curves {
		sum += c.Eval(float64(allocation[i]))
	}
	return sum
}
