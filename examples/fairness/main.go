// fairness: the paper's Fig. 13 case study on one configuration.
//
// Eight copies of the omnetpp clone (2 MB LRU cliff each) share an 8 MB
// LLC — enough for all copies to reach half their cliffs, but not for any
// to fit. Fair partitioning of LRU gives everyone a useless mid-plateau
// share; Lookahead sacrifices fairness by pushing a subset of copies past
// their cliffs; fair Talus speeds all copies up *equally* by
// interpolating along the plateau (§II-D's libquantum argument).
//
// Run with (takes ~30 s):
//
//	go run ./examples/fairness
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
	spec, ok := workload.Lookup("omnetpp")
	if !ok {
		log.Fatal("omnetpp clone missing")
	}
	apps := make([]workload.Spec, 8)
	for i := range apps {
		apps[i] = spec
	}

	runMode := func(mode sim.Mode) *sim.MixResult {
		res, err := sim.RunMix(sim.MixConfig{
			Apps:          apps,
			CapacityLines: int64(talus.MBToLines(8)),
			Mode:          mode,
			WorkInstr:     20 << 20,
			Seed:          7,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := runMode(sim.ModeLRU)
	fmt.Println("8 × omnetpp (2 MB cliffs) on an 8 MB LLC")
	fmt.Printf("%-18s %-10s %-12s %-14s\n", "scheme", "speedup", "CoV of IPC", "slowest core")
	for _, m := range []struct {
		label string
		mode  sim.Mode
	}{
		{"LRU", sim.ModeLRU},
		{"Fair/LRU", sim.ModeFairLRU},
		{"Lookahead/LRU", sim.ModeLookaheadLRU},
		{"TA-DRRIP", sim.ModeTADRRIP},
		{"Talus+Fair", sim.ModeTalusFair},
	} {
		res := runMode(m.mode)
		slowest := res.IPC[0]
		for _, v := range res.IPC {
			if v < slowest {
				slowest = v
			}
		}
		fmt.Printf("%-18s %-10.3f %-12.4f %-14.3f\n", m.label,
			stats.WeightedSpeedup(res.IPC, base.IPC), stats.CoV(res.IPC), slowest)
	}
	fmt.Println("\nLower CoV = fairer. Talus+Fair should pair the best CoV with a real speedup;")
	fmt.Println("Lookahead buys throughput with gross unfairness (high CoV, slow losers).")
}
