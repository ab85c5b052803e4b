package sim

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

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

// captureCache records every batch fed to it, missing everything.
type captureCache struct {
	batches [][]uint64
	parts   []int
}

func (c *captureCache) AccessBatch(addrs []uint64, p int, hits []bool) int {
	cp := make([]uint64, len(addrs))
	copy(cp, addrs)
	c.batches = append(c.batches, cp)
	c.parts = append(c.parts, p)
	for i := range hits {
		hits[i] = false
	}
	return 0
}

// TestRecordReplayByteIdentical asserts the acceptance criterion
// directly: the batches FeedAdaptiveTraceReader feeds from a recording
// are byte-identical — same boundaries, same partitions, same
// addresses — to the ones FeedAdaptive feeds live at the same seed and
// batch length.
func TestRecordReplayByteIdentical(t *testing.T) {
	const (
		perApp   = 1 << 14
		batchLen = 512
		seed     = 77
	)
	specs := traceTestSpecs()

	newApps := func() []*workload.App {
		apps := make([]*workload.App, len(specs))
		for i, s := range specs {
			apps[i] = workload.NewApp(s, seed+uint64(i)*7919)
		}
		return apps
	}

	live := &captureCache{}
	FeedAdaptive(live, newApps(), perApp, batchLen, 0.5)

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, len(specs), trace.WithGzip())
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordApps(w, newApps(), perApp, batchLen); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay := &captureCache{}
	tailStart := traceTailStarts([]int64{perApp, perApp}, 0.5)
	misses, accs, err := FeedAdaptiveTraceReader(replay, r, tailStart, batchLen)
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

	if len(replay.batches) != len(live.batches) {
		t.Fatalf("replay fed %d batches, live fed %d", len(replay.batches), len(live.batches))
	}
	for b := range live.batches {
		if replay.parts[b] != live.parts[b] {
			t.Fatalf("batch %d partition %d, want %d", b, replay.parts[b], live.parts[b])
		}
		if len(replay.batches[b]) != len(live.batches[b]) {
			t.Fatalf("batch %d length %d, want %d", b, len(replay.batches[b]), len(live.batches[b]))
		}
		for j := range live.batches[b] {
			if replay.batches[b][j] != live.batches[b][j] {
				t.Fatalf("batch %d addr %d = %#x, want %#x",
					b, j, replay.batches[b][j], live.batches[b][j])
			}
		}
	}
}

// TestReplayDeterminism asserts the end-to-end half of the criterion: a
// mix recorded with RecordSpecs and replayed through the adaptive loop
// (RunAdaptiveTraceFile) reproduces the exact per-app miss and access
// counts of the live generator run (RunAdaptive) at the same seed.
func TestReplayDeterminism(t *testing.T) {
	specs := traceTestSpecs()
	cfg := AdaptiveConfig{
		Apps:           specs,
		CapacityLines:  8192,
		EpochAccesses:  1 << 14,
		AccessesPerApp: 1 << 16,
		BatchLen:       512,
		Seed:           42,
	}
	liveRes, err := RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "mix.trc")
	count, err := RecordSpecs(path, specs, cfg.AccessesPerApp, cfg.BatchLen, cfg.Seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(specs)) * cfg.AccessesPerApp; count != want {
		t.Fatalf("recorded %d accesses, want %d", count, want)
	}

	replayCfg := cfg
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
}

// TestStreamingReplayCorruptTrace checks that a truncated trace
// surfaces ErrCorrupt through the streaming path rather than reading as
// a short-but-valid run.
func TestStreamingReplayCorruptTrace(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.trc")
	if _, err := RecordSpecs(good, traceTestSpecs(), 1<<12, 512, 3, false); err != nil {
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
	if _, err := RecordSpecs(path, traceTestSpecs(), 1<<14, 512, 7, false); err != nil {
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
	// Resolve must accept the trace:<path> form end to end.
	spec, err := workload.Resolve("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Build().Footprint() < 1 {
		t.Fatal("resolved trace spec has no footprint")
	}
}
