package sim

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/hash"
	"talus/internal/trace"
	"talus/internal/workload"
)

// traceTestSpecs is a tiny two-app mix: a cliffy scan and a smooth
// random working set, both small enough that the adaptive loop runs
// many epochs in milliseconds.
func traceTestSpecs() []workload.Spec {
	return []workload.Spec{
		{
			Name: "scan", APKI: 20, CPIBase: 0.5, MLP: 2,
			Build: func() workload.Pattern { return &workload.Scan{Lines: 6144} },
		},
		{
			Name: "rand", APKI: 10, CPIBase: 0.6, MLP: 1.5,
			Build: func() workload.Pattern { return &workload.Rand{Lines: 3000} },
		},
	}
}

// captureCache records every access fed to it, missing everything.
type captureCache struct {
	addrs []uint64
	parts []int
}

func (c *captureCache) Access(addr uint64, p int) bool {
	c.addrs = append(c.addrs, addr)
	c.parts = append(c.parts, p)
	return false
}

// TestRecordReplayByteIdentical asserts the acceptance criterion
// directly: the accesses feed drives from a recording are
// byte-identical — same order, same partitions, same addresses — to the
// ones it drives from the live stream at the same seed.
func TestRecordReplayByteIdentical(t *testing.T) {
	const (
		perApp = 1 << 14
		seed   = 77
	)
	specs := traceTestSpecs()

	newApps := func() []*workload.App {
		apps := make([]*workload.App, len(specs))
		for i, s := range specs {
			apps[i] = workload.NewApp(s, seed+uint64(i)*7919)
		}
		return apps
	}

	direct := &captureCache{}
	feedLive(direct, newApps(), perApp, 0.5)

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, len(specs), trace.WithGzip())
	if err != nil {
		t.Fatal(err)
	}
	for rec := range live(newApps(), perApp) {
		if err := w.Append(rec.P, rec.Addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := &captureCache{}
	misses, accs, err := feed(replayed, r.All(), tailStarts([]int64{perApp, perApp}, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	// captureCache misses everything, so the measured tail is exactly
	// the trailing half of each partition's records.
	for p := range specs {
		if accs[p] != perApp/2 || misses[p] != perApp/2 {
			t.Fatalf("partition %d tail: %d misses of %d accesses, want %d of %d",
				p, misses[p], accs[p], perApp/2, perApp/2)
		}
	}

	if len(replayed.addrs) != len(direct.addrs) {
		t.Fatalf("replay fed %d accesses, live fed %d", len(replayed.addrs), len(direct.addrs))
	}
	for i := range direct.addrs {
		if replayed.parts[i] != direct.parts[i] || replayed.addrs[i] != direct.addrs[i] {
			t.Fatalf("access %d = (%d, %#x), want (%d, %#x)",
				i, replayed.parts[i], replayed.addrs[i], direct.parts[i], direct.addrs[i])
		}
	}
}

// TestReplayDeterminism asserts the end-to-end half of the criterion: a
// mix recorded with RecordSpecs and replayed through the adaptive loop
// (RunAdaptiveTraceFile) reproduces the exact per-app miss and access
// counts of the live generator run (RunAdaptive) at the same seed — for
// every control-loop setting the config carries, not just the defaults.
func TestReplayDeterminism(t *testing.T) {
	specs := traceTestSpecs()
	base := AdaptiveConfig{
		Apps:           specs,
		CapacityLines:  8192,
		EpochAccesses:  1 << 14,
		AccessesPerApp: 1 << 17,
		Seed:           42,
	}
	path := filepath.Join(t.TempDir(), "mix.trc")
	count, err := RecordSpecs(path, specs, base.AccessesPerApp, base.Seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(specs)) * base.AccessesPerApp; count != want {
		t.Fatalf("recorded %d accesses, want %d", count, want)
	}

	weighted := base
	weighted.Weights = []float64{1, 8}
	var results [2]*AdaptiveResult
	for c, tc := range []struct {
		name string
		cfg  AdaptiveConfig
	}{{"defaults", base}, {"weights", weighted}} {
		t.Run(tc.name, func(t *testing.T) {
			liveRes, err := RunAdaptive(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			results[c] = liveRes
			replayCfg := tc.cfg
			replayCfg.Apps = nil // names and APKI come from the embedded metadata
			replayRes, err := RunAdaptiveTraceFile(replayCfg, path)
			if err != nil {
				t.Fatal(err)
			}
			for i := range liveRes.Apps {
				if replayRes.Apps[i] != liveRes.Apps[i] {
					t.Fatalf("app %d = %q, want %q (metadata lost?)", i, replayRes.Apps[i], liveRes.Apps[i])
				}
				if replayRes.MissRatio[i] != liveRes.MissRatio[i] {
					t.Fatalf("app %s miss ratio %v, want %v (replay not deterministic)",
						liveRes.Apps[i], replayRes.MissRatio[i], liveRes.MissRatio[i])
				}
				if replayRes.MPKI[i] != liveRes.MPKI[i] {
					t.Fatalf("app %s MPKI %v, want %v", liveRes.Apps[i], replayRes.MPKI[i], liveRes.MPKI[i])
				}
				if replayRes.Allocs[i] != liveRes.Allocs[i] {
					t.Fatalf("app %s alloc %d, want %d", liveRes.Apps[i], replayRes.Allocs[i], liveRes.Allocs[i])
				}
			}
			if replayRes.Epochs != liveRes.Epochs {
				t.Fatalf("replay ran %d epochs, live ran %d", replayRes.Epochs, liveRes.Epochs)
			}
		})
	}
	// The weighted case only pins anything if the weights moved the run.
	if results[0] != nil && results[1] != nil && results[0].Allocs[0] == results[1].Allocs[0] {
		t.Fatalf("weights left the live run unchanged (allocs %v)", results[1].Allocs)
	}

	// Weights are per partition: a vector that does not match the
	// trace's partition count is refused, not truncated.
	bad := base
	bad.Apps = nil
	bad.Weights = []float64{1, 2, 3}
	if _, err := RunAdaptiveTraceFile(bad, path); err == nil {
		t.Fatal("3 weights accepted for a 2-partition trace")
	}
	// The recording names its own apps: a config naming others is
	// refused, not silently overridden.
	if _, err := RunAdaptiveTraceFile(base, path); err == nil {
		t.Fatal("cfg.Apps accepted beside a trace")
	}
}

// TestReplayRaggedRunsMatchDirectAccess pins "the trace determines the
// replay": a hand-written trace whose same-partition runs are ragged
// (1, 3, 700, 5 000 records) replays exactly as the same sequence fed
// through Access directly — no run is capped or regrouped, and epochs
// (a budget no run length divides) fire at the same access.
func TestReplayRaggedRunsMatchDirectAccess(t *testing.T) {
	type rec struct {
		p    int
		addr uint64
	}
	var recs []rec
	var scanPos uint64
	rng := hash.NewSplitMix64(5)
	for round := 0; round < 12; round++ {
		for k, n := range []int{1, 3, 700, 5000} {
			p := (round + k) % 2
			for j := 0; j < n; j++ {
				if p == 0 {
					recs = append(recs, rec{0, scanPos % 6144})
					scanPos++
				} else {
					recs = append(recs, rec{1, rng.Uint64n(3000)})
				}
			}
		}
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]int64, 2)
	for _, r := range recs {
		if err := w.Append(r.p, r.addr); err != nil {
			t.Fatal(err)
		}
		totals[r.p]++
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}

	cfg := AdaptiveConfig{Apps: headerSpecs(r.Header()), CapacityLines: 8192, EpochAccesses: 5003, Seed: 9}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	build := func() *adaptive.Cache {
		ac, err := cfg.buildCache()
		if err != nil {
			t.Fatal(err)
		}
		return ac
	}
	tailStart := tailStarts(totals, 0.5)

	replayed := build()
	misses, accs, err := feed(replayed, r.All(), tailStart)
	if err != nil {
		t.Fatal(err)
	}

	direct := build()
	wantMisses, wantAccs, fed := make([]int64, 2), make([]int64, 2), make([]int64, 2)
	for _, r := range recs {
		hit := direct.Access(r.addr|adaptive.AppSpace(r.p), r.p)
		if fed[r.p] >= tailStart[r.p] {
			wantAccs[r.p]++
			if !hit {
				wantMisses[r.p]++
			}
		}
		fed[r.p]++
	}

	if replayed.Epochs() != direct.Epochs() || direct.Epochs() != len(recs)/5003 {
		t.Fatalf("epochs: replay %d, direct %d, want %d", replayed.Epochs(), direct.Epochs(), len(recs)/5003)
	}
	for p := 0; p < 2; p++ {
		if misses[p] != wantMisses[p] || accs[p] != wantAccs[p] {
			t.Fatalf("partition %d: replay %d/%d misses, direct %d/%d",
				p, misses[p], accs[p], wantMisses[p], wantAccs[p])
		}
		if got, want := replayed.Allocations()[p], direct.Allocations()[p]; got != want {
			t.Fatalf("partition %d alloc: replay %d, direct %d", p, got, want)
		}
	}
}

// TestStreamingReplayCorruptTrace checks that a truncated trace
// surfaces ErrCorrupt through the streaming path rather than reading as
// a short-but-valid run.
func TestStreamingReplayCorruptTrace(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.trc")
	if _, err := RecordSpecs(good, traceTestSpecs(), 1<<12, 3, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.trc")
	// Chop mid-record: the final byte of a multi-byte varint vanishes.
	if err := os.WriteFile(bad, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = RunAdaptiveTraceFile(AdaptiveConfig{CapacityLines: 8192, Seed: 3}, bad)
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("truncated trace replayed with err = %v, want ErrCorrupt", err)
	}
}

// TestSpecsFromTraceDrivesRunMix checks the trace-backed workload path:
// partitions of a recorded trace become ordinary workload.Specs that
// drive the multi-programmed simulator.
func TestSpecsFromTraceDrivesRunMix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mix.trc")
	if _, err := RecordSpecs(path, traceTestSpecs(), 1<<14, 7, false); err != nil {
		t.Fatal(err)
	}
	specs, err := SpecsFromTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "scan" || specs[0].APKI != 20 {
		t.Fatalf("specs = %+v", specs)
	}
	res, err := RunMix(MixConfig{
		Apps:          specs,
		CapacityLines: 8192,
		Mode:          ModeTalusHill,
		WorkInstr:     1 << 18,
		EpochCycles:   1 << 16,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 {
			t.Fatalf("app %d IPC = %v", i, ipc)
		}
	}
}

func TestReplayPattern(t *testing.T) {
	r, err := newReplay([]uint64{5, 6, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.Footprint() != 3 {
		t.Fatalf("footprint = %d, want 3", r.Footprint())
	}
	got := make([]uint64, 6)
	for i := range got {
		got[i] = r.Next(nil)
	}
	want := []uint64{5, 6, 5, 7, 5, 6} // wraps around
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay = %v, want %v", got, want)
		}
	}
	if _, err := newReplay(nil); err == nil {
		t.Fatal("empty replay must fail")
	}
}

// TestSpecsAndAppSpec: each partition of a trace becomes one app, named
// and parameterized by its metadata, replaying its own sub-stream.
func TestSpecsAndAppSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mix.trc")
	w, err := trace.Create(path, 2, trace.WithApps([]trace.AppMeta{
		{Name: "alpha", APKI: 11, CPIBase: 0.6, MLP: 2.5},
		{Name: "beta"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Partition 1 reuses partition 0's address 1: private spaces, so
	// each app replays only its own partition's records.
	for _, r := range []trace.Record{{P: 0, Addr: 1}, {P: 1, Addr: 1}, {P: 0, Addr: 2}, {P: 1, Addr: 1}} {
		if err := w.Append(r.P, r.Addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	specs, err := SpecsFromTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Name != "alpha" || specs[0].APKI != 11 {
		t.Fatalf("spec 0 = %+v", specs[0])
	}
	// Missing meta fields fall back to defaults.
	if specs[1].Name != "beta" || specs[1].APKI != traceAPKI {
		t.Fatalf("spec 1 = %+v", specs[1])
	}
	p := specs[1].Build()
	if p.Next(nil) != 1 || p.Next(nil) != 1 || p.Footprint() != 1 {
		t.Fatal("partition replay wrong")
	}
	if p := specs[0].Build(); p.Next(nil) != 1 || p.Next(nil) != 2 || p.Footprint() != 2 {
		t.Fatal("partition 0 replay wrong")
	}
}
