// multiprogram: a Fig. 12 story on one 8-app mix.
//
// Eight memory-intensive SPEC CPU2006 clones share an 8 MB LLC. Four
// management schemes compete:
//
//   - unpartitioned LRU (the baseline everything is normalized to);
//   - hill climbing on raw LRU miss curves — simple but stuck on cliffs;
//   - UCP Lookahead — effective but quadratic and all-or-nothing;
//   - Talus + hill climbing — the paper's pitch: convexified curves make
//     the trivial allocator both optimal and fair.
//
// Run with (takes ~1 min):
//
//	go run ./examples/multiprogram
package main

import (
	"fmt"
	"log"

	"talus"
	"talus/internal/sim"
	"talus/internal/stats"
	"talus/internal/workload"
)

func main() {
	names := []string{"libquantum", "omnetpp", "xalancbmk", "mcf", "lbm", "milc", "gcc", "sphinx3"}
	apps := make([]workload.Spec, len(names))
	for i, n := range names {
		spec, ok := workload.Lookup(n)
		if !ok {
			log.Fatalf("unknown workload %s", n)
		}
		apps[i] = spec
	}

	runMode := func(mode sim.Mode) *sim.MixResult {
		res, err := sim.RunMix(sim.MixConfig{
			Apps:          apps,
			CapacityLines: int64(talus.MBToLines(8)),
			Mode:          mode,
			WorkInstr:     20 << 20,
			Seed:          42,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := runMode(sim.ModeLRU)
	modes := []struct {
		label string
		mode  sim.Mode
	}{
		{"Hill/LRU", sim.ModeHillLRU},
		{"Lookahead/LRU", sim.ModeLookaheadLRU},
		{"Talus+Hill", sim.ModeTalusHill},
	}
	fmt.Printf("%-16s %-18s %-18s\n", "scheme", "weighted speedup", "harmonic speedup")
	fmt.Printf("%-16s %-18.3f %-18.3f\n", "LRU (baseline)", 1.0, 1.0)
	for _, m := range modes {
		res := runMode(m.mode)
		fmt.Printf("%-16s %-18.3f %-18.3f\n", m.label,
			stats.WeightedSpeedup(res.IPC, base.IPC),
			stats.HarmonicSpeedup(res.IPC, base.IPC))
	}
	fmt.Println("\nExpected ordering (paper §VII-D): Talus+Hill ≥ Lookahead > Hill/LRU ≈ 1.")
}
