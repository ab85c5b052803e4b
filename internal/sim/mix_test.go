package sim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"talus/internal/alloc"
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
		Mode:          mode,
		EpochCycles:   1 << 18,
		WorkInstr:     6 << 20,
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

// TestMixFirstEpochIPCIsHonest: a one-app mix whose fixed work ends
// inside the first epoch runs at the CPI its own misses produce. Crediting
// that epoch at CPIBase reported perfect-LLC speed whatever it missed.
func TestMixFirstEpochIPCIsHonest(t *testing.T) {
	spec, _ := workload.Lookup("mcf")
	res, err := RunMix(MixConfig{
		Apps: []workload.Spec{spec}, CapacityLines: 4096, Mode: ModeLRU,
		EpochCycles: 1 << 20, WorkInstr: 1 << 17, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 1 {
		t.Fatalf("work ended after %d epochs, want inside the first", res.Epochs)
	}
	if want := IPC(spec, res.MPKI[0]); math.Abs(res.IPC[0]-want) > 1e-9 {
		t.Fatalf("IPC %.12f at MPKI %.4f, want 1/CPI = %.12f", res.IPC[0], res.MPKI[0], want)
	}
}

// TestMixIPCFallsAsMPKIRises: over an LLC-size sweep of one app, a size
// with more misses per instruction runs strictly slower than one with
// fewer. The work spans the first epoch, which an optimistic first-epoch
// CPI made equally fast at every size.
func TestMixIPCFallsAsMPKIRises(t *testing.T) {
	spec, _ := workload.Lookup("mcf")
	type point struct{ lines, ipc, mpki float64 }
	var pts []point
	for _, lines := range []int64{2048, 4096, 8192, 16384, 32768} {
		res, err := RunMix(MixConfig{
			Apps: []workload.Spec{spec}, CapacityLines: lines, Mode: ModeLRU,
			EpochCycles: 1 << 20, WorkInstr: 1 << 20, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, point{float64(lines), res.IPC[0], res.MPKI[0]})
	}
	for i, a := range pts {
		for _, b := range pts[i+1:] {
			if (b.mpki > a.mpki && !(b.ipc < a.ipc)) || (b.mpki < a.mpki && !(b.ipc > a.ipc)) {
				t.Errorf("%g lines: IPC %.4f at MPKI %.3f; %g lines: IPC %.4f at MPKI %.3f",
					a.lines, a.ipc, a.mpki, b.lines, b.ipc, b.mpki)
			}
		}
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

// TestMPKIObjectiveRecoversPerAppCurves: the epoch step's curves are
// misses per kilo-access of the whole mix. Weighted by mpkiObjective,
// each equals the MPKI curve a monitor counting its own app's
// instructions reads, epoch after epoch, while the apps' shares of the
// accesses change.
func TestMPKIObjectiveRecoversPerAppCurves(t *testing.T) {
	const llc = 4096
	apps := []workload.Spec{{APKI: 10}, {APKI: 40}}
	obj := mpkiObjective{apps: apps, instr: make([]float64, len(apps))}
	newMon := func(i int) *monitor.SlicedEpochMonitor {
		m, err := monitor.NewSlicedEpochMonitor(llc, monitor.DefaultRetain, uint64(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	own, whole := []*monitor.SlicedEpochMonitor{newMon(0), newMon(1)}, []*monitor.SlicedEpochMonitor{newMon(0), newMon(1)}
	rng := hash.NewSplitMix64(9)
	for epoch, acc := range [][]int64{{30000, 10000}, {10000, 40000}, {20000, 20000}} {
		for i := range apps {
			for k := int64(0); k < acc[i]; k++ {
				addr := rng.Uint64n(3000)
				own[i].Observe(addr)
				whole[i].Observe(addr)
			}
		}
		w := obj.weights(acc)
		for i, spec := range apps {
			mine, err := own[i].EpochCurve(float64(acc[i]) * 1000 / spec.APKI)
			if err != nil {
				t.Fatal(err)
			}
			mixed, err := whole[i].EpochCurve(float64(acc[0] + acc[1]))
			if err != nil {
				t.Fatal(err)
			}
			want, got := mine.Points(), mixed.Points()
			for j := range want {
				if d := got[j].MPKI*w[i] - want[j].MPKI; math.Abs(d) > 1e-9*want[j].MPKI {
					t.Fatalf("epoch %d app %d point %d: weighted %g, own-unit %g", epoch, i, j, got[j].MPKI*w[i], want[j].MPKI)
				}
			}
		}
	}
}

// TestMPKIWeightsRecoverPerAppObjective: on constructed curves, hill
// climbing on whole-mix curves weighted by mpkiObjective allocates
// exactly as hill climbing on each app's own MPKI curve, the objective
// RunMix had when every monitor counted its own app's instructions.
// Without the weights the allocation differs.
func TestMPKIWeightsRecoverPerAppObjective(t *testing.T) {
	apps := []workload.Spec{{APKI: 10}, {APKI: 40}, {APKI: 5}}
	acc := []int64{1000, 4000, 2000} // 100 000, 100 000 and 400 000 instructions
	mpki := []*curve.Curve{
		curve.MustNew([]curve.Point{{Size: 0, MPKI: 20}, {Size: 512, MPKI: 10}, {Size: 1024, MPKI: 5}, {Size: 2048, MPKI: 4}}),
		curve.MustNew([]curve.Point{{Size: 0, MPKI: 30}, {Size: 1024, MPKI: 8}, {Size: 2048, MPKI: 6}}),
		curve.MustNew([]curve.Point{{Size: 0, MPKI: 8}, {Size: 2048, MPKI: 2}}),
	}
	var total float64
	for _, a := range acc {
		total += float64(a)
	}
	whole := make([]*curve.Curve, len(mpki))
	for i, c := range mpki {
		instr := float64(acc[i]) * 1000 / apps[i].APKI
		pts := c.Points()
		for j := range pts {
			pts[j].MPKI *= instr / total // misses per kilo-access of the mix
		}
		whole[i] = curve.MustNew(pts)
	}
	obj := mpkiObjective{apps: apps, instr: make([]float64, len(apps))}
	const budget, granule = 2048, 64
	want, err := alloc.WeightedHillClimb(alloc.NewRequest(mpki, budget, granule))
	if err != nil {
		t.Fatal(err)
	}
	got, err := alloc.WeightedHillClimb(alloc.Request{Curves: whole, Total: budget, Granule: granule, Weights: obj.weights(acc)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("weighted whole-mix curves allocate %v, per-app MPKI curves %v", got, want)
	}
	unweighted, err := alloc.WeightedHillClimb(alloc.NewRequest(whole, budget, granule))
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(unweighted, want) {
		t.Fatalf("unweighted whole-mix curves also allocate %v: the case does not tell the objectives apart", want)
	}
}

// TestMixIPCIsTheCoreModelOfItsOwnMisses: in a four-app mix, managed or
// not, every app's IPC is the core model applied to the MPKI it reports,
// to rounding. Each core's clock charges every access its own cycles, so
// no epoch-level CPI estimate stands between an app's misses and its time.
func TestMixIPCIsTheCoreModelOfItsOwnMisses(t *testing.T) {
	var apps []workload.Spec
	for _, name := range []string{"mcf", "lbm", "omnetpp", "xalancbmk"} {
		spec, ok := workload.Lookup(name)
		if !ok {
			t.Fatalf("no app %q", name)
		}
		apps = append(apps, spec)
	}
	for _, mode := range []Mode{ModeLRU, ModeTalusHill} {
		res, err := RunMix(MixConfig{
			Apps: apps, CapacityLines: 32768, Mode: mode,
			EpochCycles: 1 << 19, WorkInstr: 4 << 20, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range apps {
			if want := IPC(spec, res.MPKI[i]); math.Abs(res.IPC[i]-want) > 1e-9 {
				t.Errorf("%s %s: IPC %.12f at MPKI %.4f, want 1/CPI = %.12f (off by %.2g)",
					mode, spec.Name, res.IPC[i], res.MPKI[i], want, res.IPC[i]-want)
			}
		}
	}
}

// TestRunMixRefusesAppsTheClockCannotRun: an app whose APKI, CPIBase or
// MLP is not finite and positive has no per-access cost a clock can
// charge. RunMix refuses it by name instead of reporting an IPC.
func TestRunMixRefusesAppsTheClockCannotRun(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		for field, set := range map[string]func(*workload.Spec){
			"APKI":    func(s *workload.Spec) { s.APKI = bad },
			"CPIBase": func(s *workload.Spec) { s.CPIBase = bad },
			"MLP":     func(s *workload.Spec) { s.MLP = bad },
		} {
			broken := smallConvex("broken")
			set(&broken)
			cfg := fastMix([]workload.Spec{smallCliff("fine"), broken}, ModeLRU, 1)
			cfg.WorkInstr = 1 << 16
			res, err := RunMix(cfg)
			if err == nil {
				t.Errorf("%s %g: IPC %v, want an error", field, bad, res.IPC)
				continue
			}
			if !strings.Contains(err.Error(), `"broken"`) {
				t.Errorf("%s %g: error %q does not name the app", field, bad, err)
			}
		}
	}
}
