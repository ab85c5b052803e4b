package bypass

import (
	"math"
	"testing"
	"testing/quick"

	"talus/internal/curve"
	"talus/internal/hull"
)

func mb(x float64) float64 { return curve.MBToLines(x) }

// fig3Curve is the paper's example curve (see §III / Fig. 3).
func fig3Curve() *curve.Curve {
	return curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 24},
		{Size: mb(2), MPKI: 12},
		{Size: mb(4.999), MPKI: 12},
		{Size: mb(5), MPKI: 3},
		{Size: mb(10), MPKI: 3},
	})
}

// TestOptimalFig5 reproduces the paper's Fig. 5: optimal bypassing at
// 4 MB admits ρ = 4/5 of accesses (the cache emulates 5 MB) and yields
// roughly 8 MPKI — "better than without bypassing, but worse than the
// 6 MPKI that Talus achieves".
func TestOptimalFig5(t *testing.T) {
	cfg, err := Optimal(fig3Curve(), mb(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cfg.Rho-0.8) > 1e-9 {
		t.Errorf("rho = %g, want 0.8", cfg.Rho)
	}
	if math.Abs(cfg.Emulated-mb(5)) > 1e-6 {
		t.Errorf("emulated = %g MB, want 5", curve.LinesToMB(cfg.Emulated))
	}
	// m = 0.8·3 + 0.2·24 = 7.2 (the paper's "roughly 8 MPKI").
	if math.Abs(cfg.MPKI-7.2) > 1e-9 {
		t.Errorf("MPKI = %g, want 7.2", cfg.MPKI)
	}
	// Talus achieves 6 at 4MB: bypassing must be worse.
	if cfg.MPKI <= 6 {
		t.Error("optimal bypassing should not beat Talus here")
	}
}

func TestOptimalNoBypassWhenUseless(t *testing.T) {
	// On a convex curve, bypassing cannot help below the knee: admitting
	// everything (ρ=1) should be optimal or tied.
	c := curve.MustNew([]curve.Point{{Size: 0, MPKI: 20}, {Size: 100, MPKI: 5}, {Size: 200, MPKI: 4}, {Size: 400, MPKI: 3.8}})
	cfg, err := Optimal(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MPKI > c.Eval(100)+1e-9 {
		t.Fatalf("bypassing made things worse: %g > %g", cfg.MPKI, c.Eval(100))
	}
}

func TestOptimalErrors(t *testing.T) {
	if _, err := Optimal(nil, 10); err == nil {
		t.Fatal("nil curve must fail")
	}
	c := fig3Curve()
	for _, s := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Optimal(c, s); err == nil {
			t.Errorf("size %g must fail", s)
		}
	}
}

// TestOptimalNeverBeatsHullOnSteepCliff checks Corollary 8 on a curve
// whose cliff is a straight fall from 24 to 3 MPKI over 5 MB, and that
// Curve returns one point per requested size.
func TestOptimalNeverBeatsHullOnSteepCliff(t *testing.T) {
	m := curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 24},
		{Size: mb(5), MPKI: 3},
		{Size: mb(10), MPKI: 3},
	})
	bc, err := Optimal(m, mb(4))
	if err != nil {
		t.Fatal(err)
	}
	if bc.MPKI < hull.Lower(m).Eval(mb(4))-1e-9 {
		t.Fatal("bypassing beat the hull: violates Corollary 8")
	}
	bcurve, err := Curve(m, []float64{mb(2), mb(4)})
	if err != nil {
		t.Fatal(err)
	}
	if bcurve.NumPoints() != 2 {
		t.Fatal("bypass curve points")
	}
}

func TestCurveFig6(t *testing.T) {
	// Fig. 6's ordering at every size: hull ≤ bypassing ≤ original.
	m := fig3Curve()
	h := hull.Lower(m)
	sizes := make([]float64, 0, 40)
	for s := 0.25; s <= 10; s += 0.25 {
		sizes = append(sizes, mb(s))
	}
	b, err := Curve(m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumPoints() != len(sizes) {
		t.Fatalf("bypass curve has %d points for %d sizes", b.NumPoints(), len(sizes))
	}
	for _, s := range sizes {
		hm, bm, om := h.Eval(s), b.Eval(s), m.Eval(s)
		if bm > om+1e-9 {
			t.Errorf("size %gMB: bypassing %g worse than original %g", curve.LinesToMB(s), bm, om)
		}
		if hm > bm+1e-9 {
			t.Errorf("size %gMB: hull %g above bypassing %g (violates Corollary 8)", curve.LinesToMB(s), hm, bm)
		}
	}
}

func TestCurveErrors(t *testing.T) {
	if _, err := Curve(nil, []float64{1}); err == nil {
		t.Fatal("nil curve must fail")
	}
	if _, err := Curve(fig3Curve(), nil); err == nil {
		t.Fatal("no sizes must fail")
	}
}

func TestCurveZeroSizePoint(t *testing.T) {
	b, err := Curve(fig3Curve(), []float64{0, mb(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Eval(0); math.Abs(got-24) > 1e-9 {
		t.Fatalf("bypass curve at 0 = %g, want m(0)=24", got)
	}
}

// Property (Corollary 8): optimal bypassing never beats the convex hull,
// and never loses to the original curve, on random monotone curves.
func TestQuickCorollary8(t *testing.T) {
	f := func(sizes, mpkis []uint16, probeRaw uint16) bool {
		n := len(sizes)
		if len(mpkis) < n {
			n = len(mpkis)
		}
		if n < 2 {
			return true
		}
		pts := make([]curve.Point, 0, n+1)
		x, m := 0.0, 5000.0
		pts = append(pts, curve.Point{Size: 0, MPKI: m})
		for i := 0; i < n; i++ {
			x += float64(sizes[i]%500) + 1
			m = math.Max(0, m-float64(mpkis[i]%1000))
			pts = append(pts, curve.Point{Size: x, MPKI: m})
		}
		c := curve.MustNew(pts)
		h := hull.Lower(c)
		probe := c.MaxSize() * (0.01 + 0.98*float64(probeRaw)/65535)
		if probe <= 0 {
			return true
		}
		cfg, err := Optimal(c, probe)
		if err != nil {
			return false
		}
		tol := 1e-6 * (1 + cfg.MPKI)
		return cfg.MPKI >= h.Eval(probe)-tol && cfg.MPKI <= c.Eval(probe)+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
