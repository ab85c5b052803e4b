package talus

import (
	"math"
	"testing"
)

// TestPublicAPIWorkedExample drives the whole public surface through the
// paper's §III example.
func TestPublicAPIWorkedExample(t *testing.T) {
	m := MustCurve([]Point{
		{Size: 0, MPKI: 24},
		{Size: MBToLines(2), MPKI: 12},
		{Size: MBToLines(4.999), MPKI: 12},
		{Size: MBToLines(5), MPKI: 3},
		{Size: MBToLines(10), MPKI: 3},
	})

	h := ConvexHull(m)
	if !h.IsConvex(1e-9) {
		t.Fatal("hull not convex")
	}
	if got := InterpolatedMPKI(m, MBToLines(4)); math.Abs(got-6) > 1e-9 {
		t.Fatalf("InterpolatedMPKI = %g, want 6", got)
	}

	cfg, err := Configure(m, MBToLines(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cfg.RhoIdeal-1.0/3) > 1e-12 || math.Abs(cfg.PredictedMPKI-6) > 1e-9 {
		t.Fatalf("config = %+v", cfg)
	}

	hulls := Convexify([]*MissCurve{m})
	if !hulls[0].IsConvex(1e-9) {
		t.Fatal("Convexify output not convex")
	}
}

func TestPublicAPICacheConstruction(t *testing.T) {
	inner, err := BuildCache("vantage", int64(MBToLines(1)), 16, 2, "LRU", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := NewShadowedCache(inner, 1, DefaultMargin, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := MustCurve([]Point{
		{Size: 0, MPKI: 20},
		{Size: MBToLines(0.9), MPKI: 20},
		{Size: MBToLines(1), MPKI: 2},
		{Size: MBToLines(4), MPKI: 2},
	})
	if err := tc.Reconfigure([]int64{inner.PartitionableCapacity()}, []*MissCurve{m}); err != nil {
		t.Fatal(err)
	}
	sizes := tc.ShadowSizes()
	var sum int64
	for _, s := range sizes {
		sum += s
	}
	if sum != inner.PartitionableCapacity() {
		t.Fatalf("shadow sizes %v do not sum to the allocation %d", sizes, inner.PartitionableCapacity())
	}
	// Accesses must flow.
	hits := 0
	for i := 0; i < 10000; i++ {
		if tc.Access(uint64(i%1000), 0) {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no hits on a 1000-line working set in a 1MB cache")
	}
}

func TestPublicAPIAdaptive(t *testing.T) {
	ac, err := New(WithCapacity(8192), WithAssoc(16), WithShards(2), WithPartitions(2),
		WithAdaptive(AdaptiveConfig{EpochAccesses: 1 << 14, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 400; round++ {
		for p := 0; p < 2; p++ {
			for i := 0; i < 256; i++ {
				ac.Access(uint64(round*256+i)%4096|uint64(p+1)<<48, p)
			}
		}
	}
	if ac.Epochs() == 0 {
		t.Fatal("adaptive cache never reconfigured")
	}
	allocs := ac.Allocations()
	if len(allocs) != 2 || allocs[0]+allocs[1] <= 0 {
		t.Fatalf("bad allocations %v", allocs)
	}
	if err := ac.Controller().LastError; err != "" {
		t.Fatal(err)
	}
}

func TestPublicAPIUnits(t *testing.T) {
	if MBToLines(1) != float64(LinesPerMB) {
		t.Fatal("MBToLines(1) != LinesPerMB")
	}
	if LinesToMB(MBToLines(7)) != 7 {
		t.Fatal("unit round trip failed")
	}
}
