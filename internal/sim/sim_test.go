package sim

import (
	"math"
	"testing"

	"talus/internal/core"
	"talus/internal/workload"
)

// cliffSpec is a small synthetic app with an LRU cliff, cheap enough for
// unit tests: a pure cyclic scan of 8192 lines at 20 APKI — a miniature
// libquantum.
var cliffSpec = workload.Spec{
	Name: "minicliff", APKI: 20, CPIBase: 0.5, MLP: 2,
	Build: func() workload.Pattern { return &workload.Scan{Lines: 8192} },
}

// mixedCliffSpec has a convex region followed by a cliff, so the hull
// anchors sit strictly inside the curve (α > 0): a harder Talus case.
var mixedCliffSpec = workload.Spec{
	Name: "miniomnet", APKI: 24, CPIBase: 0.6, MLP: 1.5,
	Build: func() workload.Pattern {
		return workload.MustMix(
			workload.Component{Pattern: &workload.Rand{Lines: 1536}, Weight: 0.4},
			workload.Component{Pattern: &workload.Scan{Lines: 5800}, Weight: 0.5},
			workload.Component{Pattern: &workload.Rand{Lines: 1 << 22}, Weight: 0.1},
		)
	},
}

// TestWorkloadRegistryAndIPC checks the simulator's view of the clone
// registry: 29 SPEC CPU2006 clones, the 18-app memory-intensive pool,
// lookup by name, and a positive IPC for a looked-up clone.
func TestWorkloadRegistryAndIPC(t *testing.T) {
	if len(workload.Names()) != 29 {
		t.Fatalf("workload.Names() = %d names, want 29", len(workload.Names()))
	}
	if len(workload.MemoryIntensive()) != 18 {
		t.Fatal("memory-intensive pool should have 18 names")
	}
	spec, ok := workload.Lookup("libquantum")
	if !ok {
		t.Fatal("libquantum missing")
	}
	if ipc := IPC(spec, 0); ipc <= 0 {
		t.Fatal("IPC model broken")
	}
}

func TestIPCModel(t *testing.T) {
	spec := workload.Spec{Name: "x", APKI: 10, CPIBase: 0.5, MLP: 2}
	// Zero misses: IPC = 1/CPIBase.
	if got := IPC(spec, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("IPC(0) = %g, want 2", got)
	}
	// 10 MPKI: CPI = 0.5 + 10/1000·200/2 = 1.5.
	if got := IPC(spec, 10); math.Abs(got-1/1.5) > 1e-12 {
		t.Fatalf("IPC(10) = %g, want %g", got, 1/1.5)
	}
	// More misses always means lower IPC.
	if !(IPC(spec, 5) > IPC(spec, 15)) {
		t.Fatal("IPC must fall with MPKI")
	}
}

func TestPlainSweepShowsCliff(t *testing.T) {
	cfg := SweepConfig{
		App:             cliffSpec,
		SizesLines:      []int64{4096, 6144, 10240},
		WarmupAccesses:  1 << 16,
		MeasureAccesses: 1 << 19,
		Seed:            11,
	}
	c, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Below the 8192-line footprint: ~all miss (MPKI ≈ APKI). Above: ~0.
	if got := c.Eval(4096); got < 17 {
		t.Errorf("MPKI(4096) = %g, want ≈ 20", got)
	}
	if got := c.Eval(6144); got < 17 {
		t.Errorf("MPKI(6144) = %g, want ≈ 20 (plateau)", got)
	}
	if got := c.Eval(10240); got > 3 {
		t.Errorf("MPKI(10240) = %g, want ≈ 0 (past cliff)", got)
	}
}

// TestTalusTracesHull is the headline integration test: on a cliff
// workload at a mid-plateau size, plain LRU sits on the plateau while
// Talus reaches (close to) the convex hull — on the idealized, Vantage,
// and way-partitioned schemes alike (Fig. 8).
func TestTalusTracesHull(t *testing.T) {
	const size = 6144 // 75% of the 8192-line cliff
	base := SweepConfig{
		App:             cliffSpec,
		WarmupAccesses:  1 << 17,
		MeasureAccesses: 1 << 20,
		Seed:            21,
	}

	plain, err := RunPoint(base, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Predicted hull value at this size.
	prof, err := ProfileCurve(base, size, 99)
	if err != nil {
		t.Fatal(err)
	}
	hullMPKI := core.InterpolatedMPKI(prof, float64(size))

	for _, scheme := range []string{"ideal", "vantage", "way"} {
		cfg := base
		cfg.Talus = true
		cfg.Scheme = scheme
		got, err := RunPoint(cfg, size, 2)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		// Talus must clearly beat the plateau...
		if !(got < plain*0.75) {
			t.Errorf("%s: Talus MPKI %g vs plain %g: cliff not removed", scheme, got, plain)
		}
		// ...and land near the hull (generous tolerance: margin, sampling
		// noise, and Vantage's unmanaged region all push it slightly up).
		if got > hullMPKI*1.5+1.5 {
			t.Errorf("%s: Talus MPKI %g far above hull %g", scheme, got, hullMPKI)
		}
	}
}

func TestTalusInteriorAnchors(t *testing.T) {
	// Mixed workload: hull anchors strictly inside the curve.
	const size = 4500
	base := SweepConfig{
		App:             mixedCliffSpec,
		WarmupAccesses:  1 << 17,
		MeasureAccesses: 1 << 20,
		Seed:            31,
	}
	plain, err := RunPoint(base, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Talus = true
	cfg.Scheme = "ideal"
	got, err := RunPoint(cfg, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(got < plain*0.9) {
		t.Errorf("Talus %g vs plain %g: no improvement on interior cliff", got, plain)
	}
}

func TestTalusNeverMuchWorseThanLRU(t *testing.T) {
	// On a convex workload (nothing to fix), Talus must track plain LRU.
	convexSpec := workload.Spec{
		Name: "convex", APKI: 15, CPIBase: 0.5, MLP: 2,
		Build: func() workload.Pattern { return &workload.Rand{Lines: 6000} },
	}
	base := SweepConfig{
		App:             convexSpec,
		WarmupAccesses:  1 << 16,
		MeasureAccesses: 1 << 19,
		Seed:            41,
	}
	for _, size := range []int64{2048, 4096} {
		plain, err := RunPoint(base, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Talus = true
		cfg.Scheme = "ideal"
		got, err := RunPoint(cfg, size, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got > plain*1.15+0.5 {
			t.Errorf("size %d: Talus %g much worse than LRU %g on convex curve", size, got, plain)
		}
	}
}

func TestTalusSRRIPWithMultiMonitor(t *testing.T) {
	// Fig. 9's point: Talus is policy-agnostic given a miss curve, here
	// from 16-point SRRIP monitors.
	const size = 6144
	base := SweepConfig{
		App:             cliffSpec,
		Policy:          "SRRIP",
		WarmupAccesses:  1 << 17,
		MeasureAccesses: 1 << 20,
		Seed:            51,
	}
	plain, err := RunPoint(base, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Talus = true
	cfg.Scheme = "way"
	cfg.MonitorPoints = 16
	got, err := RunPoint(cfg, size, 2)
	if err != nil {
		t.Fatal(err)
	}
	// SRRIP itself thrashes less than LRU on scans, but still has a
	// cliff; Talus should not be significantly worse, and at mid-plateau
	// it should help.
	if got > plain+2 {
		t.Errorf("Talus+SRRIP %g worse than SRRIP %g", got, plain)
	}
}

func TestTalusNonStackPolicyDefaultsToMultiMonitor(t *testing.T) {
	// A Talus run on a policy without the stack property must not profile
	// with the LRU stack: MonitorPoints 0 selects the paper's 64-point
	// MultiMonitor there, exactly as if the caller had asked for it.
	cfg := SweepConfig{
		App:             cliffSpec,
		Policy:          "SRRIP",
		Scheme:          "way",
		Talus:           true,
		WarmupAccesses:  1 << 16,
		MeasureAccesses: 1 << 18,
		Seed:            71,
	}
	got, err := RunPoint(cfg, 6144, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MonitorPoints = 64
	want, err := RunPoint(cfg, 6144, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("SRRIP with MonitorPoints 0: MPKI %g, with 64: %g; want identical", got, want)
	}
}

func TestProfileCurveShape(t *testing.T) {
	cfg := SweepConfig{App: cliffSpec, ProfileAccesses: 1 << 20, Seed: 61}
	cfg.defaults()
	c, err := ProfileCurve(cfg, 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(c.Eval(0) > 15) {
		t.Errorf("profile m(0) = %g, want ≈ APKI", c.Eval(0))
	}
	// Coverage to 4× the LLC must capture the post-cliff region.
	if got := c.Eval(3 * 8192); got > 5 {
		t.Errorf("profile m(3·LLC) = %g, want ≈ 0", got)
	}
}
