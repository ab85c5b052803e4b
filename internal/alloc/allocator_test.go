package alloc

import (
	"testing"

	"talus/internal/curve"
)

// TestAllocatorValuesMatchFunctions: each shared Allocator value is its
// function on the plain request and spends the whole budget.
func TestAllocatorValuesMatchFunctions(t *testing.T) {
	curves := []*curve.Curve{
		curve.MustNew([]curve.Point{{Size: 0, MPKI: 30}, {Size: 4096, MPKI: 2}}),
		curve.MustNew([]curve.Point{{Size: 0, MPKI: 12}, {Size: 2048, MPKI: 6}, {Size: 8192, MPKI: 1}}),
	}
	const total, granule = 8192, 128

	cases := []struct {
		a  Allocator
		fn func([]*curve.Curve, int64, int64) ([]int64, error)
	}{
		{HillClimbAllocator, HillClimb},
		{LookaheadAllocator, Lookahead},
		{OptimalDPAllocator, OptimalDP},
		{FairAllocator, func(c []*curve.Curve, tot, g int64) ([]int64, error) {
			return Fair(len(c), tot, g)
		}},
	}
	for _, tc := range cases {
		got, err := tc.a.Allocate(NewRequest(curves, total, granule))
		if err != nil {
			t.Fatalf("%s: %v", tc.a.Name(), err)
		}
		want, err := tc.fn(curves, total, granule)
		if err != nil {
			t.Fatalf("%s fn: %v", tc.a.Name(), err)
		}
		var sum int64
		for i := range got {
			sum += got[i]
			if got[i] != want[i] {
				t.Errorf("%s: Allocate %v != function %v", tc.a.Name(), got, want)
				break
			}
		}
		if sum != total {
			t.Errorf("%s: allocation %v does not spend the budget %d", tc.a.Name(), got, total)
		}
	}
}

// TestAllocatorValuesSpendBudget: every shared value allocates a small
// two-partition request and spends exactly its budget (moved here with
// the values when the root package stopped re-exporting them).
func TestAllocatorValuesSpendBudget(t *testing.T) {
	a := curve.MustNew([]curve.Point{{Size: 0, MPKI: 20}, {Size: 100, MPKI: 10}, {Size: 400, MPKI: 1}})
	b := curve.MustNew([]curve.Point{{Size: 0, MPKI: 8}, {Size: 200, MPKI: 2}, {Size: 400, MPKI: 1}})
	req := NewRequest([]*curve.Curve{a, b}, 400, 10)
	for _, al := range []Allocator{HillClimbAllocator, LookaheadAllocator, OptimalDPAllocator, FairAllocator} {
		got, err := al.Allocate(req)
		if err != nil {
			t.Fatalf("%s: %v", al.Name(), err)
		}
		if got[0]+got[1] != 400 {
			t.Fatalf("%s: allocation %v does not sum to budget", al.Name(), got)
		}
	}
}
