package alloc

import (
	"testing"

	"talus/internal/curve"
)

// TestAllocatorValuesSpendBudget: every shared value allocates a small
// two-partition request and spends exactly its budget (moved here with
// the values when the root package stopped re-exporting them).
func TestAllocatorValuesSpendBudget(t *testing.T) {
	a := curve.MustNew([]curve.Point{{Size: 0, MPKI: 20}, {Size: 100, MPKI: 10}, {Size: 400, MPKI: 1}})
	b := curve.MustNew([]curve.Point{{Size: 0, MPKI: 8}, {Size: 200, MPKI: 2}, {Size: 400, MPKI: 1}})
	req := NewRequest([]*curve.Curve{a, b}, 400, 10)
	for _, al := range []Allocator{HillClimbAllocator, LookaheadAllocator, FairAllocator} {
		got, err := al.Allocate(req)
		if err != nil {
			t.Fatalf("%s: %v", al.Name(), err)
		}
		if got[0]+got[1] != 400 {
			t.Fatalf("%s: allocation %v does not sum to budget", al.Name(), got)
		}
	}
}
