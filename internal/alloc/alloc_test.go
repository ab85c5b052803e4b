package alloc

import (
	"math"
	"testing"
	"testing/quick"

	"talus/internal/curve"
	"talus/internal/hull"
)

// convexCurve and cliffCurve are the two canonical shapes.
func convexCurve(scale float64) *curve.Curve {
	return curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 20 * scale},
		{Size: 100, MPKI: 10 * scale},
		{Size: 200, MPKI: 5 * scale},
		{Size: 400, MPKI: 2 * scale},
		{Size: 800, MPKI: 1 * scale},
	})
}

func cliffCurve() *curve.Curve {
	// Plateau at 20 until 500, then cliff to 1.
	return curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 20}, {Size: 100, MPKI: 20}, {Size: 499, MPKI: 20}, {Size: 500, MPKI: 1}, {Size: 800, MPKI: 1},
	})
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func TestValidation(t *testing.T) {
	c := convexCurve(1)
	if _, err := WeightedHillClimb(NewRequest(nil, 100, 10)); err == nil {
		t.Fatal("no curves must fail")
	}
	if _, err := WeightedHillClimb(NewRequest([]*curve.Curve{c}, -1, 10)); err == nil {
		t.Fatal("negative total must fail")
	}
	if _, err := WeightedHillClimb(NewRequest([]*curve.Curve{c}, 100, 0)); err == nil {
		t.Fatal("zero granule must fail")
	}
	if _, err := WeightedLookahead(NewRequest([]*curve.Curve{nil}, 100, 10)); err == nil {
		t.Fatal("nil curve must fail")
	}
	if _, err := Fair(0, 100, 10); err == nil {
		t.Fatal("zero partitions must fail")
	}
}

func TestBudgetConservation(t *testing.T) {
	curves := []*curve.Curve{convexCurve(1), convexCurve(2), cliffCurve()}
	for _, total := range []int64{0, 10, 100, 999, 1600} {
		for _, granule := range []int64{1, 7, 10, 100} {
			for name, f := range map[string]func() ([]int64, error){
				"hill":      func() ([]int64, error) { return WeightedHillClimb(NewRequest(curves, total, granule)) },
				"lookahead": func() ([]int64, error) { return WeightedLookahead(NewRequest(curves, total, granule)) },
				"dp":        func() ([]int64, error) { return WeightedOptimalDP(NewRequest(curves, total, granule)) },
				"fair":      func() ([]int64, error) { return Fair(3, total, granule) },
			} {
				got, err := f()
				if err != nil {
					t.Fatalf("%s(%d,%d): %v", name, total, granule, err)
				}
				if sum(got) != total {
					t.Errorf("%s(%d,%d) allocated %d: %v", name, total, granule, sum(got), got)
				}
				for _, g := range got {
					if g < 0 {
						t.Errorf("%s: negative allocation %v", name, got)
					}
				}
			}
		}
	}
}

func TestHillClimbOptimalOnConvex(t *testing.T) {
	// On convex curves hill climbing must match the DP optimum — the
	// paper's core argument for why Talus makes partitioning simple.
	curves := []*curve.Curve{convexCurve(1), convexCurve(3), convexCurve(0.5)}
	const total, granule = 800, 10
	hillAlloc, err := WeightedHillClimb(NewRequest(curves, total, granule))
	if err != nil {
		t.Fatal(err)
	}
	dpAlloc, err := WeightedOptimalDP(NewRequest(curves, total, granule))
	if err != nil {
		t.Fatal(err)
	}
	hillM := TotalMPKI(curves, hillAlloc)
	dpM := TotalMPKI(curves, dpAlloc)
	if hillM > dpM+1e-9 {
		t.Fatalf("hill %g vs DP %g: hill must be optimal on convex curves", hillM, dpM)
	}
}

func TestHillClimbStuckOnCliff(t *testing.T) {
	// A cliff plus a gently convex competitor: hill climbing never sees
	// marginal gain on the plateau, so the cliff app is starved — the
	// pathology Fig. 12's Hill/LRU exhibits. (The budget is ample: with a
	// too-tight budget even Lookahead legitimately abandons the cliff.)
	curves := []*curve.Curve{cliffCurve(), convexCurve(1)}
	const total, granule = 1000, 10
	hillAlloc, err := WeightedHillClimb(NewRequest(curves, total, granule))
	if err != nil {
		t.Fatal(err)
	}
	dpAlloc, err := WeightedOptimalDP(NewRequest(curves, total, granule))
	if err != nil {
		t.Fatal(err)
	}
	if TotalMPKI(curves, hillAlloc) <= TotalMPKI(curves, dpAlloc)+1e-9 {
		t.Fatal("hill climbing should be stuck on this cliff; test workload too easy")
	}
	// Lookahead must cross the plateau and give the cliff app its 500.
	laAlloc, err := WeightedLookahead(NewRequest(curves, total, granule))
	if err != nil {
		t.Fatal(err)
	}
	if laAlloc[0] < 500 {
		t.Fatalf("lookahead allocated %d to the cliff app, want ≥ 500", laAlloc[0])
	}
	if math.Abs(TotalMPKI(curves, laAlloc)-TotalMPKI(curves, dpAlloc)) > 2 {
		t.Fatalf("lookahead %g far from optimal %g", TotalMPKI(curves, laAlloc), TotalMPKI(curves, dpAlloc))
	}
}

func TestHillClimbOnHullsMatchesLookahead(t *testing.T) {
	// Talus's pre-processing: hill climbing on convex hulls must be at
	// least as good (in hull terms) as Lookahead on the raw curves.
	raw := []*curve.Curve{cliffCurve(), convexCurve(1)}
	hulls := []*curve.Curve{hull.Lower(raw[0]), hull.Lower(raw[1])}
	const total, granule = 600, 10
	hillOnHulls, err := WeightedHillClimb(NewRequest(hulls, total, granule))
	if err != nil {
		t.Fatal(err)
	}
	dpOnHulls, err := WeightedOptimalDP(NewRequest(hulls, total, granule))
	if err != nil {
		t.Fatal(err)
	}
	if TotalMPKI(hulls, hillOnHulls) > TotalMPKI(hulls, dpOnHulls)+1e-9 {
		t.Fatal("hill on hulls must be optimal")
	}
}

func TestFairEqual(t *testing.T) {
	got, err := Fair(4, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sum(got) != 100 {
		t.Fatalf("fair sums to %d", sum(got))
	}
	for _, g := range got {
		if g < 20 || g > 30 {
			t.Fatalf("fair allocation uneven: %v", got)
		}
	}
}

func TestTotalMPKI(t *testing.T) {
	curves := []*curve.Curve{convexCurve(1), cliffCurve()}
	got := TotalMPKI(curves, []int64{100, 500})
	want := 10.0 + 1.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalMPKI = %g, want %g", got, want)
	}
}

// Property: DP is never worse than hill climbing or lookahead, and all
// conserve the budget, on random monotone curves.
func TestQuickDPDominates(t *testing.T) {
	f := func(raw []uint16, nRaw, totRaw uint8) bool {
		n := int(nRaw%3) + 2
		if len(raw) < n*4 {
			return true
		}
		curves := make([]*curve.Curve, n)
		for i := 0; i < n; i++ {
			pts := make([]curve.Point, 0, 4)
			x, m := 0.0, 3000.0
			for j := 0; j < 4; j++ {
				x += float64(raw[i*4+j]%200) + 1
				m = math.Max(0, m-float64(raw[i*4+j]%1500))
				pts = append(pts, curve.Point{Size: x, MPKI: m})
			}
			curves[i] = curve.MustNew(pts)
		}
		total := int64(totRaw)*8 + 16
		const granule = 8
		hillA, err1 := WeightedHillClimb(NewRequest(curves, total, granule))
		laA, err2 := WeightedLookahead(NewRequest(curves, total, granule))
		dpA, err3 := WeightedOptimalDP(NewRequest(curves, total, granule))
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if sum(hillA) != total || sum(laA) != total || sum(dpA) != total {
			return false
		}
		dpM := TotalMPKI(curves, dpA)
		return dpM <= TotalMPKI(curves, hillA)+1e-9 && dpM <= TotalMPKI(curves, laA)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
