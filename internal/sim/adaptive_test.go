package sim

import (
	"testing"

	"talus/internal/adaptive"
	"talus/internal/alloc"
	"talus/internal/cache"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/workload"
)

// The headline control-loop experiment: on a two-phase workload mix, the
// adaptive runtime — which measures, convexifies, allocates, and
// reconfigures purely from its own traffic — must converge to within 10%
// of the oracle: the same Talus stack configured offline from exact
// analytic miss curves for the running phase.

const (
	e2eCapacity = 8192
	e2eAssoc    = 16
	e2eScan     = 6144 // scan footprint: cliff past any fair share
	e2eRand     = 4096 // random working set
	e2ePerApp   = 3 << 20
	e2eTail     = 0.25 // steady-state measurement window
	e2eEpoch    = 1 << 18
)

func scanSpec(name string) workload.Spec {
	return workload.Spec{
		Name: name, APKI: 20, CPIBase: 0.5, MLP: 2,
		Build: func() workload.Pattern { return &workload.Scan{Lines: e2eScan} },
	}
}

func randSpec(name string) workload.Spec {
	return workload.Spec{
		Name: name, APKI: 20, CPIBase: 0.5, MLP: 2,
		Build: func() workload.Pattern { return &workload.Rand{Lines: e2eRand} },
	}
}

// analyticCurve returns the exact LRU miss curve (misses per kilo-access)
// of a phase's pattern: a step at the footprint for scans, a linear ramp
// for uniform random reuse.
func analyticCurve(t *testing.T, spec workload.Spec) *curve.Curve {
	t.Helper()
	switch spec.Build().(type) {
	case *workload.Scan:
		return curve.MustNew([]curve.Point{
			{Size: 0, MPKI: 1000}, {Size: e2eScan - 1, MPKI: 1000},
			{Size: e2eScan, MPKI: 0}, {Size: 4 * e2eCapacity, MPKI: 0},
		})
	case *workload.Rand:
		return curve.MustNew([]curve.Point{
			{Size: 0, MPKI: 1000}, {Size: e2eRand, MPKI: 0},
			{Size: 4 * e2eCapacity, MPKI: 0},
		})
	}
	t.Fatal("unknown pattern")
	return nil
}

// oracleMissRatio builds a fresh (non-adaptive) Talus stack, configures
// it once from the phase's exact curves with the same allocator the
// adaptive loop uses, feeds it the identical traffic, and returns the
// aggregate tail miss ratio.
func oracleMissRatio(t *testing.T, specs []workload.Spec, seed uint64) float64 {
	t.Helper()
	n := len(specs)
	inner, err := cache.BuildSharded("vantage", e2eCapacity, e2eAssoc, 1, 2*n, "LRU", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := core.NewShadowedCache(inner, n, core.DefaultMargin, seed^0xADA97)
	if err != nil {
		t.Fatal(err)
	}
	curves := make([]*curve.Curve, n)
	for i, spec := range specs {
		curves[i] = analyticCurve(t, spec)
	}
	budget := inner.PartitionableCapacity()
	granule := budget / 64
	allocs, err := alloc.HillClimbAllocator.Allocate(alloc.NewRequest(core.Convexify(curves), budget, granule))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Reconfigure(allocs, curves); err != nil {
		t.Fatal(err)
	}
	apps := make([]*workload.App, n)
	for i, spec := range specs {
		apps[i] = workload.NewApp(spec, seed+uint64(i)*7919)
	}
	misses, accs := FeedAdaptive(sc, apps, e2ePerApp, e2eTail)
	return ratioOf(misses, accs)
}

func ratioOf(misses, accs []int64) float64 {
	var m, a int64
	for i := range misses {
		m += misses[i]
		a += accs[i]
	}
	return float64(m) / float64(a)
}

func TestAdaptiveTracksOracleAcrossPhases(t *testing.T) {
	const seed = 42
	phase1 := []workload.Spec{scanSpec("scanner"), randSpec("rander")}
	phase2 := []workload.Spec{randSpec("rander"), scanSpec("scanner")} // roles swap

	ac, err := adaptive.Build("vantage", e2eCapacity, e2eAssoc, 1, 2, "LRU",
		core.DefaultMargin, adaptive.Config{EpochAccesses: e2eEpoch, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	runPhase := func(specs []workload.Spec) float64 {
		apps := make([]*workload.App, len(specs))
		for i, spec := range specs {
			apps[i] = workload.NewApp(spec, seed+uint64(i)*7919)
		}
		misses, accs := FeedAdaptive(ac, apps, e2ePerApp, e2eTail)
		return ratioOf(misses, accs)
	}

	adaptive1 := runPhase(phase1)
	adaptive2 := runPhase(phase2) // same cache: must re-converge after the phase change
	oracle1 := oracleMissRatio(t, phase1, seed)
	oracle2 := oracleMissRatio(t, phase2, seed)

	if err := ac.Err(); err != nil {
		t.Fatalf("control loop error: %v", err)
	}
	if ep := ac.Epochs(); ep < 20 {
		t.Fatalf("only %d epochs across both phases", ep)
	}
	t.Logf("phase 1: adaptive %.4f vs oracle %.4f; phase 2: adaptive %.4f vs oracle %.4f",
		adaptive1, oracle1, adaptive2, oracle2)

	// Sanity: the oracle itself must be doing real Talus work — the scan
	// cannot fit, so its hull interpolation leaves a substantial but far
	// from total miss ratio.
	for i, oracle := range []float64{oracle1, oracle2} {
		if oracle < 0.05 || oracle > 0.6 {
			t.Fatalf("phase %d oracle miss ratio %.4f outside the regime this test targets", i+1, oracle)
		}
	}
	// The acceptance bar: steady-state within 10% of the oracle per
	// phase (plus 2pp absolute slack for monitor sampling noise).
	if limit := oracle1*1.10 + 0.02; adaptive1 > limit {
		t.Errorf("phase 1: adaptive %.4f exceeds oracle %.4f by more than 10%% (+2pp)", adaptive1, oracle1)
	}
	if limit := oracle2*1.10 + 0.02; adaptive2 > limit {
		t.Errorf("phase 2: adaptive %.4f exceeds oracle %.4f by more than 10%% (+2pp)", adaptive2, oracle2)
	}
}
