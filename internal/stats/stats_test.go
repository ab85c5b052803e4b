package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func eq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeans(t *testing.T) {
	xs := []float64{1, 2, 4}
	if !eq(Mean(xs), 7.0/3, 1e-12) {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if !eq(GeoMean(xs), 2, 1e-12) {
		t.Errorf("GeoMean = %g", GeoMean(xs))
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || GeoMean(nil) != 0 ||
		Variance(nil) != 0 || CoV(nil) != 0 || Quantile(nil, 0.5) != 0 {
		t.Fatal("empty inputs must yield 0")
	}
}

func TestVarianceAndCoV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !eq(Variance(xs), 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", Variance(xs))
	}
	if !eq(StdDev(xs), 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", StdDev(xs))
	}
	if !eq(CoV(xs), 2.0/5, 1e-12) {
		t.Errorf("CoV = %g, want 0.4", CoV(xs))
	}
}

func TestCoVIdenticalValues(t *testing.T) {
	// Fig. 13's fairness ideal: identical per-core IPCs give CoV 0.
	xs := []float64{3, 3, 3, 3, 3, 3, 3, 3}
	if CoV(xs) != 0 {
		t.Fatalf("CoV of equal values = %g", CoV(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, tc := range cases {
		if got := Quantile(xs, tc.q); !eq(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Fatal("Quantile must not modify its input")
	}
}

func TestQuantiles(t *testing.T) {
	got := Quantiles([]float64{3, 1, 2})
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Quantiles = %v", got)
		}
	}
}

func TestSpeedups(t *testing.T) {
	ipc := []float64{2, 1}
	base := []float64{1, 1}
	if !eq(WeightedSpeedup(ipc, base), 1.5, 1e-12) {
		t.Errorf("WeightedSpeedup = %g", WeightedSpeedup(ipc, base))
	}
	// Harmonic: 2 / (1/2 + 1/1) = 4/3 — penalizes the imbalance.
	if !eq(HarmonicSpeedup(ipc, base), 4.0/3, 1e-12) {
		t.Errorf("HarmonicSpeedup = %g", HarmonicSpeedup(ipc, base))
	}
	if WeightedSpeedup(ipc, []float64{1}) != 0 {
		t.Fatal("mismatched lengths must yield 0")
	}
}

// Property: geometric ≤ arithmetic mean for positive inputs (the AM–GM
// inequality).
func TestQuickMeanInequality(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: weighted speedup of identical IPCs is exactly 1, and harmonic
// speedup never exceeds weighted speedup.
func TestQuickSpeedupRelations(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		ipc := make([]float64, len(raw))
		base := make([]float64, len(raw))
		for i, r := range raw {
			ipc[i] = float64(r%100)/10 + 0.1
			base[i] = float64(r%37)/10 + 0.1
		}
		if !eq(WeightedSpeedup(base, base), 1, 1e-12) {
			return false
		}
		return HarmonicSpeedup(ipc, base) <= WeightedSpeedup(ipc, base)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
