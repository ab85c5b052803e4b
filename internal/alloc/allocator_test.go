package alloc

import (
	"strings"
	"testing"

	"talus/internal/curve"
)

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

func TestAllocatorByName(t *testing.T) {
	for name, want := range map[string]Allocator{
		"hill":      HillClimbAllocator,
		"lookahead": LookaheadAllocator,
		"fair":      FairAllocator,
		"optimal":   OptimalDPAllocator,
	} {
		got, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if got.Name() != want.Name() {
			t.Errorf("ByName(%q) = %s, want %s", name, got.Name(), want.Name())
		}
	}
	// The error must teach the vocabulary, not just name the bad input.
	_, err := ByName("simulated-annealing")
	if err == nil {
		t.Fatal("unknown allocator name must error")
	}
	for _, want := range []string{"simulated-annealing", "fair", "hill", "lookahead", "optimal"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("ByName error %q does not mention %q", err, want)
		}
	}
}
