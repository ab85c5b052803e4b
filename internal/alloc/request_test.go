package alloc

import (
	"math"
	"math/rand"
	"testing"

	"talus/internal/curve"
)

// randConvexCurve builds a random convex, non-increasing miss curve on
// [0, maxSize]: random positive slopes sorted by decreasing magnitude.
func randConvexCurve(rng *rand.Rand, maxSize int64, npts int) *curve.Curve {
	drops := make([]float64, npts-1)
	for i := range drops {
		drops[i] = rng.Float64() * 10
	}
	// Sort descending: steepest drop first = convex (slope magnitude
	// shrinking with size).
	for i := 1; i < len(drops); i++ {
		for j := i; j > 0 && drops[j] > drops[j-1]; j-- {
			drops[j], drops[j-1] = drops[j-1], drops[j]
		}
	}
	// Suffix sums keep every height exactly non-negative (a running
	// subtraction can go fractionally below zero in floating point).
	heights := make([]float64, npts)
	for i := npts - 2; i >= 0; i-- {
		heights[i] = heights[i+1] + drops[i]
	}
	pts := make([]curve.Point, npts)
	step := float64(maxSize) / float64(npts-1)
	for i := range pts {
		pts[i] = curve.Point{Size: float64(i) * step, MPKI: heights[i]}
	}
	return curve.MustNew(pts)
}

// TestWeightedHillClimbOptimal is the satellite property test: on random
// convex hulls with random weights, greedy weighted hill climbing must
// match the exact weighted DP's objective value (allocations may differ
// where the objective ties, so compare Σ wᵢ·missesᵢ, not vectors).
func TestWeightedHillClimbOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		const total, granule = 4096, 128
		req := Request{Total: total, Granule: granule}
		req.Curves = make([]*curve.Curve, n)
		req.Weights = make([]float64, n)
		for i := range req.Curves {
			req.Curves[i] = randConvexCurve(rng, total, 3+rng.Intn(6))
			req.Weights[i] = 0.25 + rng.Float64()*8
		}
		got, err := WeightedHillClimb(req)
		if err != nil {
			t.Fatalf("trial %d: hill: %v", trial, err)
		}
		want, err := WeightedOptimalDP(req)
		if err != nil {
			t.Fatalf("trial %d: dp: %v", trial, err)
		}
		var sum int64
		for _, v := range got {
			sum += v
		}
		if sum != total {
			t.Fatalf("trial %d: hill spends %d of %d", trial, sum, total)
		}
		weightedCost := func(allocation []int64) (sum float64) {
			for i, c := range req.Curves {
				sum += req.Weights[i] * c.Eval(float64(allocation[i]))
			}
			return sum
		}
		gc, wc := weightedCost(got), weightedCost(want)
		if gc > wc+1e-9*(1+math.Abs(wc)) {
			t.Fatalf("trial %d: hill cost %.9g > dp cost %.9g\nhill %v\ndp   %v\nweights %v",
				trial, gc, wc, got, want, req.Weights)
		}
	}
}

// TestRequestConstraints exercises floors, caps, and their validation.
func TestRequestConstraints(t *testing.T) {
	c := func() *curve.Curve {
		return curve.MustNew([]curve.Point{{Size: 0, MPKI: 20}, {Size: 4096, MPKI: 1}})
	}
	base := Request{Curves: []*curve.Curve{c(), c()}, Total: 4096, Granule: 128}

	t.Run("floor honored", func(t *testing.T) {
		req := base
		req.MinLines = []int64{0, 1024}
		out, err := WeightedHillClimb(req)
		if err != nil {
			t.Fatal(err)
		}
		if out[1] < 1024 {
			t.Fatalf("floor violated: %v", out)
		}
		if out[0]+out[1] != req.Total {
			t.Fatalf("budget not spent: %v", out)
		}
	})
	t.Run("cap honored", func(t *testing.T) {
		req := base
		req.MaxLines = []int64{512, 0}
		for name, fn := range map[string]func(Request) ([]int64, error){
			"hill": WeightedHillClimb, "lookahead": WeightedLookahead, "dp": WeightedOptimalDP,
		} {
			out, err := fn(req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if out[0] > 512 {
				t.Fatalf("%s: cap violated: %v", name, out)
			}
			if out[0]+out[1] != req.Total {
				t.Fatalf("%s: budget not spent: %v", name, out)
			}
		}
	})
	t.Run("weight pulls capacity", func(t *testing.T) {
		// Identical curves: uniform weights split evenly-ish; weighting
		// partition 1 by 8 must shift lines toward it.
		req := base
		uniform, err := WeightedHillClimb(req)
		if err != nil {
			t.Fatal(err)
		}
		req.Weights = []float64{1, 8}
		weighted, err := WeightedHillClimb(req)
		if err != nil {
			t.Fatal(err)
		}
		if weighted[1] <= uniform[1] {
			t.Fatalf("8× weight did not attract capacity: uniform %v weighted %v", uniform, weighted)
		}
	})
	t.Run("validation", func(t *testing.T) {
		bad := []Request{
			{Curves: base.Curves, Total: 4096, Granule: 128, Weights: []float64{1}},
			{Curves: base.Curves, Total: 4096, Granule: 128, Weights: []float64{1, -2}},
			{Curves: base.Curves, Total: 4096, Granule: 128, Weights: []float64{1, math.NaN()}},
			{Curves: base.Curves, Total: 4096, Granule: 128, MinLines: []int64{4000, 4000}},
			{Curves: base.Curves, Total: 4096, Granule: 128, MaxLines: []int64{100, 100}},
			{Curves: base.Curves, Total: 4096, Granule: 128, MinLines: []int64{0, 600}, MaxLines: []int64{4096, 500}},
		}
		for i, req := range bad {
			if _, err := WeightedHillClimb(req); err == nil {
				t.Errorf("bad request %d accepted", i)
			}
		}
	})
}
