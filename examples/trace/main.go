// Trace demo: record a two-phase mix, replay it through the adaptive
// loop, and verify the replay reproduces the live run exactly.
//
// The workloads are deliberately phase-changing (each app alternates
// between a scanning phase and a random-reuse phase) so the recording
// captures non-stationary behaviour — the case where "rerun the
// generator" and "replay the stream" could plausibly diverge. They
// don't: recording happens at the feeder level, so the replayed stream
// is byte-identical to the live one and every miss count, allocation,
// and epoch matches.
//
// Run with:
//
//	go run ./examples/trace
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"talus"
	"talus/internal/sim"
	"talus/internal/workload"
)

func main() {
	mb := talus.MBToLines

	// Two-phase apps: a cliff-maker that periodically rests, and a
	// working-set app that periodically streams.
	twoPhase := func(name string, apki float64, scan, reuse int64) talus.WorkloadSpec {
		return talus.WorkloadSpec{
			Name: name, APKI: apki, CPIBase: 0.5, MLP: 2,
			Build: func() workload.Pattern {
				p, err := workload.NewPhased(
					workload.Stage{Pattern: &workload.Scan{Lines: scan}, Length: 1 << 19},
					workload.Stage{Pattern: &workload.Rand{Lines: reuse}, Length: 1 << 19},
				)
				if err != nil {
					log.Fatal(err)
				}
				return p
			},
		}
	}
	specs := []talus.WorkloadSpec{
		twoPhase("phased-scan", 20, int64(mb(3)), int64(mb(0.5))),
		twoPhase("phased-rand", 12, int64(mb(1)), int64(mb(1.5))),
	}

	cfg := talus.AdaptiveRunConfig{
		Apps:           specs,
		CapacityLines:  int64(mb(4)),
		EpochAccesses:  1 << 18,
		AccessesPerApp: 4 << 20,
		Seed:           42,
	}

	// Live run: generators feed the adaptive loop directly.
	live, err := talus.RunAdaptive(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Record the same mix (same seed → same streams) to a compact trace.
	dir, err := os.MkdirTemp("", "talus-trace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "twophase.trc")
	count, err := sim.RecordSpecs(path, specs, cfg.AccessesPerApp, cfg.Seed, true)
	if err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("recorded %d accesses to %s (%.2f bytes/access after delta+gzip)\n\n",
		count, filepath.Base(path), float64(info.Size())/float64(count))

	// Replay: the trace, not the generators, drives the loop.
	replayCfg := cfg
	replayCfg.Apps = nil // app names and APKI travel inside the trace
	replay, err := talus.RunAdaptiveTraceFile(replayCfg, path)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %16s %16s\n", "app", "live miss-ratio", "replay miss-ratio")
	exact := true
	for i := range live.Apps {
		fmt.Printf("%-14s %16.4f %16.4f\n", live.Apps[i], live.MissRatio[i], replay.MissRatio[i])
		if live.MissRatio[i] != replay.MissRatio[i] || live.Allocs[i] != replay.Allocs[i] {
			exact = false
		}
	}
	fmt.Printf("\nepochs: live %d, replay %d\n", live.Epochs, replay.Epochs)
	if !exact || live.Epochs != replay.Epochs {
		log.Fatal("replay diverged from the live run")
	}
	fmt.Println("replay is exact: identical miss ratios, allocations, and epochs")
}
