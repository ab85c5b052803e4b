// End-to-end validation of the measured monitor → hull → Talus stack
// against the exact oracle — the first tests in the repo where the
// reference is computed independently of the machinery under test.

package oracle

import (
	"testing"

	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/hull"
	"talus/internal/sim"
	"talus/internal/workload"
)

// validationLLC is the cache size the validation suite runs against:
// small enough that 8 scenarios × ~1.5M accesses stay fast, large
// enough that the monitor bank runs at its production sampling rates
// (all three arrays shed to rate 0.25 at this size, same as at 8 MB).
const validationLLC = 4096

func validationAccesses(t *testing.T) int64 {
	if testing.Short() {
		return 384 * 1024
	}
	return 1536 * 1024
}

// monitorDistanceBound is the stated sampling-error bound: the
// normalized L1 gap (curve.Distance) between a monitor-measured curve
// and the exact oracle curve, which integrates the monitor's two real
// error sources — sampling noise (≤64-set arrays at rate ≤ 0.25) and
// cliff smear (way granularity plus set-level Poisson jitter moves a
// measured cliff by up to ±25% of its position, the same tolerance the
// monitor round-trip tests assert) — without letting either fail the
// test pointwise. Empirically the suite sits at 0.02–0.14 (cliff-heavy
// scenarios at the top, smooth ones near the bottom); 0.20 is headroom
// for seed variance, not slack for regressions — a mis-assembled curve
// or broken generator lands far above it.
const monitorDistanceBound = 0.20

// monitorRatioBound bounds the worst absolute miss-ratio error outside
// the ±25% cliff bands and the size-0 extrapolation point (see
// Comparison.MaxRatioErr). Empirically ≤ 0.09 (zipf's steep head at
// single-way granularity); 0.12 adds seed-variance headroom.
const monitorRatioBound = 0.12

// TestMonitorMatchesOracle is the acceptance property: for every
// generator, the monitor-measured miss curve matches the exact oracle
// within the stated sampling-error bound.
func TestMonitorMatchesOracle(t *testing.T) {
	n := validationAccesses(t)
	for _, sc := range Scenarios(validationLLC, n) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			cmp, monCurve, oraCurve, err := CompareMonitor(sc, validationLLC, 0xBEEF)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: distance %.4f, max ratio err %.4f (rates %v)",
				sc.Name, cmp.Distance, cmp.MaxRatioErr, cmp.Rates)
			if cmp.Distance > monitorDistanceBound {
				t.Errorf("distance %.4f > %.2f\nmonitor: %v\noracle:  %v",
					cmp.Distance, monitorDistanceBound, monCurve, oraCurve)
			}
			if cmp.MaxRatioErr > monitorRatioBound {
				t.Errorf("max ratio err %.4f > %.2f\nmonitor: %v\noracle:  %v",
					cmp.MaxRatioErr, monitorRatioBound, monCurve, oraCurve)
			}
		})
	}
}

// TestHullIsLowerConvexEnvelope checks, on exact oracle curves, that
// hull.Lower produces a true lower convex envelope: convex, nowhere
// above the curve, anchored at the curve's endpoints, through a subset
// of the curve's points, and maximal (every curve point on or above it).
func TestHullIsLowerConvexEnvelope(t *testing.T) {
	n := validationAccesses(t)
	for _, sc := range Scenarios(validationLLC, n) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			s := FromPattern(sc.Build(), sc.Accesses, 0x41C)
			c, err := s.Curve(Grid(4*validationLLC, 128), float64(sc.Accesses)/1000)
			if err != nil {
				t.Fatal(err)
			}
			h := hull.Lower(c)
			if !h.IsConvex(1e-9) {
				t.Fatalf("hull is not convex: %v", h)
			}
			cPts, hPts := c.Points(), h.Points()
			if hPts[0] != cPts[0] || hPts[len(hPts)-1] != cPts[len(cPts)-1] {
				t.Fatalf("hull endpoints %v, %v differ from curve endpoints %v, %v",
					hPts[0], hPts[len(hPts)-1], cPts[0], cPts[len(cPts)-1])
			}
			onCurve := map[curve.Point]bool{}
			for _, p := range cPts {
				onCurve[p] = true
			}
			for _, p := range hPts {
				if !onCurve[p] {
					t.Fatalf("hull vertex %v is not a curve point", p)
				}
			}
			// Lower envelope: h ≤ c at every curve point (and so, both
			// being piecewise-linear on nested vertex sets, everywhere).
			for _, p := range cPts {
				if hv := h.Eval(p.Size); hv > p.MPKI+1e-9 {
					t.Fatalf("hull above curve at size %g: %g > %g", p.Size, hv, p.MPKI)
				}
			}
		})
	}
}

// TestTalusRecombinesToOracle verifies Eq. 5 on exact curves: the Talus
// configuration computed for a target size s must satisfy
// ρ·m(α) + (1−ρ)·m(β) = hull(s), and the two shadow partitions'
// Theorem-4-scaled curves must recombine to exactly that value.
func TestTalusRecombinesToOracle(t *testing.T) {
	n := validationAccesses(t)
	for _, sc := range Scenarios(validationLLC, n) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			s := FromPattern(sc.Build(), sc.Accesses, 0x7A15)
			m, err := s.Curve(Grid(4*validationLLC, 128), float64(sc.Accesses)/1000)
			if err != nil {
				t.Fatal(err)
			}
			h := hull.Lower(m)
			checked := 0
			for _, frac := range []float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.95} {
				target := frac * m.MaxSize()
				cfg, err := core.Configure(m, target, 0)
				if err != nil {
					t.Fatal(err)
				}
				hullVal := h.Eval(target)
				if cfg.Degenerate {
					// Degenerate configs run a single partition at the raw
					// curve's miss rate — legal only where the hull buys
					// less than Configure's documented flat-gain window.
					if cfg.PredictedMPKI < hullVal-1e-6*(1+hullVal) {
						t.Fatalf("size %.0f: degenerate PredictedMPKI %g below hull %g", target, cfg.PredictedMPKI, hullVal)
					}
					if cfg.PredictedMPKI-hullVal > 0.02*cfg.PredictedMPKI+0.01 {
						t.Fatalf("size %.0f: degenerate PredictedMPKI %g exceeds flat-gain window above hull %g",
							target, cfg.PredictedMPKI, hullVal)
					}
					continue
				}
				if abs(cfg.PredictedMPKI-hullVal) > 1e-6*(1+hullVal) {
					t.Fatalf("size %.0f: PredictedMPKI %g != hull %g", target, cfg.PredictedMPKI, hullVal)
				}
				checked++
				// Eq. 5 from the raw anchors.
				recombined := cfg.RhoIdeal*m.Eval(cfg.Alpha) + (1-cfg.RhoIdeal)*m.Eval(cfg.Beta)
				if abs(recombined-hullVal) > 1e-6*(1+hullVal) {
					t.Fatalf("size %.0f: ρ·m(α)+(1−ρ)·m(β) = %g, hull = %g", target, recombined, hullVal)
				}
				// The same identity through Theorem 4's curve transform:
				// the α shadow partition of size S1 = ρ·α sees the ρ-scaled
				// curve, the β partition of size S2 = (1−ρ)·β the
				// (1−ρ)-scaled one; their miss rates sum to the hull.
				ca, err := m.Scale(cfg.RhoIdeal)
				if err != nil {
					t.Fatal(err)
				}
				cb, err := m.Scale(1 - cfg.RhoIdeal)
				if err != nil {
					t.Fatal(err)
				}
				sum := ca.Eval(cfg.S1) + cb.Eval(cfg.S2)
				if abs(sum-hullVal) > 1e-6*(1+hullVal) {
					t.Fatalf("size %.0f: scaled shadow curves recombine to %g, hull = %g", target, sum, hullVal)
				}
			}
			if checked == 0 {
				t.Logf("%s: hull is the curve (already convex); nothing to interpolate", sc.Name)
			}
		})
	}
}

// TestTalusRemovesOracleCliff is the empirical end of the recombination
// property: a simulated Talus cache driven by the *oracle's* exact
// curve (CurveOverride bypasses the monitor) must realize the hull's
// miss rate at the cliffseeker's attacked size — where plain LRU sits
// on the cliff plateau.
func TestTalusRemovesOracleCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated Talus point runs are not short")
	}
	const llc = validationLLC
	seeker, err := workload.NewCliffSeeker(llc)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{
		Name: "cliffseeker-oracle", APKI: 25, CPIBase: 0.55, MLP: 2,
		Build: func() workload.Pattern { return must(workload.NewCliffSeeker(llc)) },
	}
	const accesses = 1 << 21
	s := FromPattern(seeker, accesses, 0xFACE)
	oracleCurve, err := s.Curve(Grid(2*seeker.Knee, 256), float64(accesses)/1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.SweepConfig{
		App:             spec,
		Scheme:          "ideal",
		Talus:           true,
		Margin:          -1, // exact ρ: the margin would deliberately overshoot
		CurveOverride:   oracleCurve,
		WarmupAccesses:  1 << 20,
		MeasureAccesses: 1 << 21,
		Seed:            42,
	}
	talusMPKI, err := sim.RunPoint(cfg, llc, 42)
	if err != nil {
		t.Fatal(err)
	}
	lruCfg := cfg
	lruCfg.Talus = false
	lruCfg.Scheme = "none"
	lruMPKI, err := sim.RunPoint(lruCfg, llc, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Convert MPKI (per kilo-instruction at APKI 25) to miss ratios.
	talusRatio := talusMPKI / spec.APKI
	lruRatio := lruMPKI / spec.APKI
	hullRatio := hull.Lower(oracleCurve).Eval(float64(llc)) / 1000
	rawRatio := oracleCurve.Eval(float64(llc)) / 1000
	t.Logf("at %d lines: LRU %.3f (oracle says %.3f), Talus %.3f, hull promises %.3f",
		llc, lruRatio, rawRatio, talusRatio, hullRatio)
	// The oracle must agree with the measured plain-LRU cache...
	if abs(lruRatio-rawRatio) > 0.05 {
		t.Fatalf("oracle curve (%.3f) disagrees with measured LRU (%.3f) at the target", rawRatio, lruRatio)
	}
	// ...the cliff must be real...
	if lruRatio < hullRatio+0.2 {
		t.Fatalf("no cliff to remove: LRU %.3f, hull %.3f", lruRatio, hullRatio)
	}
	// ...and Talus must deliver (close to) the hull, far below the cliff.
	if talusRatio > hullRatio+0.1 {
		t.Fatalf("Talus %.3f missed the hull's promise %.3f", talusRatio, hullRatio)
	}
	if lruRatio-talusRatio < 0.2 {
		t.Fatalf("Talus %.3f did not remove the cliff (LRU %.3f)", talusRatio, lruRatio)
	}
}
