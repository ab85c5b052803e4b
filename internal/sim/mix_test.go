package sim

import (
	"strings"
	"testing"

	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/monitor"
	"talus/internal/stats"
	"talus/internal/workload"
)

// smallCliff is a cheap cliff app for mix tests (cliff ≈ 8192 lines).
func smallCliff(name string) workload.Spec {
	return workload.Spec{
		Name: name, APKI: 20, CPIBase: 0.5, MLP: 2,
		Build: func() workload.Pattern { return &workload.Scan{Lines: 8192} },
	}
}

// smallConvex is a cheap convex app.
func smallConvex(name string) workload.Spec {
	return workload.Spec{
		Name: name, APKI: 12, CPIBase: 0.5, MLP: 2,
		Build: func() workload.Pattern { return &workload.Rand{Lines: 6000} },
	}
}

func fastMix(apps []workload.Spec, mode Mode, seed uint64) MixConfig {
	return MixConfig{
		Apps:          apps,
		CapacityLines: 16384,
		Assoc:         32,
		Mode:          mode,
		EpochCycles:   1 << 18,
		WorkInstr:     6 << 20,
		MaxEpochs:     400,
		Seed:          seed,
	}
}

func TestRunMixValidation(t *testing.T) {
	if _, err := RunMix(MixConfig{}); err == nil {
		t.Fatal("empty mix must fail")
	}
	if _, err := RunMix(MixConfig{Apps: []workload.Spec{smallConvex("a")}}); err == nil {
		t.Fatal("zero capacity must fail")
	}
	cfg := fastMix([]workload.Spec{smallConvex("a")}, "not-a-mode", 1)
	_, err := RunMix(cfg)
	if err == nil {
		t.Fatal("unknown mode must fail")
	}
	// The error must enumerate the valid modes.
	for _, want := range []string{"not-a-mode", "lru", "tadrrip", "talus-hill", "talus-lookahead"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("RunMix error %q does not mention %q", err, want)
		}
	}
}

func TestRunMixBaselineCompletes(t *testing.T) {
	apps := []workload.Spec{smallConvex("a"), smallCliff("b")}
	res, err := RunMix(fastMix(apps, ModeLRU, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 2 {
		t.Fatalf("results for %d apps", len(res.IPC))
	}
	for i := range res.IPC {
		if res.IPC[i] <= 0 || res.IPC[i] > 1/apps[i].CPIBase+1e-9 {
			t.Errorf("app %d IPC %g out of range", i, res.IPC[i])
		}
		if res.CompletionCycles[i] <= 0 {
			t.Errorf("app %d did not complete", i)
		}
		if res.MPKI[i] < 0 || res.MPKI[i] > apps[i].APKI+1 {
			t.Errorf("app %d MPKI %g out of range", i, res.MPKI[i])
		}
	}
	if res.Epochs <= 1 {
		t.Errorf("suspiciously few epochs: %d", res.Epochs)
	}
}

func TestRunMixAllModesComplete(t *testing.T) {
	apps := []workload.Spec{smallConvex("a"), smallCliff("b"), smallConvex("c"), smallCliff("d")}
	for _, mode := range []Mode{ModeLRU, ModeTADRRIP, ModeHillLRU, ModeLookaheadLRU, ModeFairLRU, ModeTalusHill, ModeTalusFair, ModeTalusLookahead} {
		res, err := RunMix(fastMix(apps, mode, 9))
		if err != nil {
			t.Errorf("%s: %v", mode, err)
			continue
		}
		for i, ipc := range res.IPC {
			if ipc <= 0 {
				t.Errorf("%s: app %d IPC %g", mode, i, ipc)
			}
		}
	}
}

// TestMixTalusBeatsHillOnCliffs is the Fig. 12 story in miniature: four
// copies of a cliff app share an LLC half the size of their combined
// cliffs. Hill climbing on raw LRU curves sees zero marginal utility
// anywhere and leaves everyone on the plateau; Talus's convexified curves
// turn the same hill climbing into useful allocations.
func TestMixTalusBeatsHillOnCliffs(t *testing.T) {
	apps := []workload.Spec{smallCliff("c0"), smallCliff("c1"), smallCliff("c2"), smallCliff("c3")}

	base, err := RunMix(fastMix(apps, ModeLRU, 31))
	if err != nil {
		t.Fatal(err)
	}
	hill, err := RunMix(fastMix(apps, ModeHillLRU, 31))
	if err != nil {
		t.Fatal(err)
	}
	talus, err := RunMix(fastMix(apps, ModeTalusHill, 31))
	if err != nil {
		t.Fatal(err)
	}

	wsHill := stats.WeightedSpeedup(hill.IPC, base.IPC)
	wsTalus := stats.WeightedSpeedup(talus.IPC, base.IPC)
	if !(wsTalus > wsHill+0.02) {
		t.Fatalf("Talus hill WS %g should beat plain hill WS %g", wsTalus, wsHill)
	}
	if !(wsTalus > 1.05) {
		t.Fatalf("Talus hill WS %g should clearly beat unpartitioned LRU", wsTalus)
	}
}

// TestMixTalusFairness mirrors Fig. 13: homogeneous cliff apps under fair
// Talus speed up together (near-zero CoV of IPC), while Lookahead on raw
// curves creates winners and losers.
func TestMixTalusFairness(t *testing.T) {
	apps := []workload.Spec{smallCliff("c0"), smallCliff("c1"), smallCliff("c2"), smallCliff("c3")}

	// Longer fixed work than the other tests: the paper's near-zero CoV
	// is a steady-state property, and short runs are dominated by the
	// cold-start transient.
	cfgFair := fastMix(apps, ModeTalusFair, 17)
	cfgFair.WorkInstr = 24 << 20
	talusFair, err := RunMix(cfgFair)
	if err != nil {
		t.Fatal(err)
	}
	cfgLA := fastMix(apps, ModeLookaheadLRU, 17)
	cfgLA.WorkInstr = 24 << 20
	lookahead, err := RunMix(cfgLA)
	if err != nil {
		t.Fatal(err)
	}

	covTalus := stats.CoV(talusFair.IPC)
	covLA := stats.CoV(lookahead.IPC)
	if covTalus > 0.05 {
		t.Errorf("fair Talus CoV = %g, want ≈ 0", covTalus)
	}
	// Lookahead's all-or-nothing allocations are visibly unfair here.
	if !(covLA > covTalus) {
		t.Errorf("Lookahead CoV %g should exceed fair Talus CoV %g", covLA, covTalus)
	}
	// And fair Talus should still deliver real speedup over the shared
	// baseline (the plateau is interpolable).
	cfgBase := fastMix(apps, ModeLRU, 17)
	cfgBase.WorkInstr = 24 << 20
	base, err := RunMix(cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	if ws := stats.WeightedSpeedup(talusFair.IPC, base.IPC); ws < 1.03 {
		t.Errorf("fair Talus WS = %g, want clear gain", ws)
	}
}

func TestMixDeterminism(t *testing.T) {
	apps := []workload.Spec{smallConvex("a"), smallCliff("b")}
	r1, err := RunMix(fastMix(apps, ModeTalusHill, 5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunMix(fastMix(apps, ModeTalusHill, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.IPC {
		if r1.IPC[i] != r2.IPC[i] || r1.MPKI[i] != r2.MPKI[i] {
			t.Fatal("same-seed mixes must be bit-identical")
		}
	}
}

// TestCloseEpochClosesEveryMonitor is the regression test for RunMix's
// epoch-close step stopping at the first monitor with no sampled access:
// a monitor that is still empty in the first epoch, ahead of a busy one,
// must not change the busy one's second-epoch curve (left open, it kept
// undecayed counters against an unadvanced denominator and read
// over-scaled).
func TestCloseEpochClosesEveryMonitor(t *testing.T) {
	const llc, perEpoch = 4096, 100_000
	newMon := func() *monitor.SlicedEpochMonitor {
		m, err := monitor.NewSlicedEpochMonitor(llc, monitor.DefaultRetain, 17, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	late, behind, alone := newMon(), newMon(), newMon()
	pair := []*monitor.SlicedEpochMonitor{late, behind}
	solo := []*monitor.SlicedEpochMonitor{alone}
	pairCurves := make([]*curve.Curve, 2)
	soloCurves := make([]*curve.Curve, 1)

	rng := hash.NewSplitMix64(3)
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < perEpoch; i++ {
			addr := rng.Uint64n(2048)
			behind.Observe(addr)
			alone.Observe(addr)
			if epoch > 0 {
				late.Observe(addr)
			}
		}
		if got, want := closeEpoch(pair, []float64{perEpoch, perEpoch}, pairCurves), epoch > 0; got != want {
			t.Fatalf("epoch %d: closeEpoch = %v with the late monitor empty = %v", epoch, got, !want)
		}
		if !closeEpoch(solo, []float64{perEpoch}, soloCurves) {
			t.Fatalf("epoch %d: busy monitor produced no curve", epoch)
		}
	}
	got, want := pairCurves[1].Points(), soloCurves[0].Points()
	if len(got) != len(want) {
		t.Fatalf("second-epoch curve has %d points behind a late monitor, %d alone", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("second-epoch point %d: %+v behind a late monitor, %+v alone", i, got[i], want[i])
		}
	}
}
