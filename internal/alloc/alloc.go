package alloc

import (
	"errors"
	"fmt"

	"talus/internal/curve"
)

// ErrBadInput reports invalid allocation inputs.
var ErrBadInput = errors.New("alloc: bad input")

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

// TotalMPKI evaluates the aggregate MPKI of an allocation under the given
// curves (the allocator's objective function).
func TotalMPKI(curves []*curve.Curve, allocation []int64) float64 {
	sum := 0.0
	for i, c := range curves {
		sum += c.Eval(float64(allocation[i]))
	}
	return sum
}
