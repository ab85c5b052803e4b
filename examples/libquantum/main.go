// libquantum: reproduce the paper's Fig. 1 on one cache size, end to end.
//
// This example runs the full Talus pipeline the way hardware would:
//
//  1. profile the libquantum clone's miss curve with the sampled
//     LRU-stack monitor (4× the LLC's coverage, §VI-C);
//  2. convexify and configure shadow partitions for a 24 MB LLC — right
//     on the plateau of the 32 MB cliff, where LRU wastes every line;
//  3. simulate both plain LRU and Talus and compare measured MPKI with
//     the hull's promise.
//
// Run with (takes ~20 s):
//
//	go run ./examples/libquantum
package main

import (
	"fmt"
	"log"

	"talus"
	"talus/internal/sim"
	"talus/internal/workload"
)

const llcMB = 24

func main() {
	spec, ok := workload.Lookup("libquantum")
	if !ok {
		log.Fatal("libquantum clone missing")
	}
	size := int64(talus.MBToLines(llcMB))

	base := sim.SweepConfig{
		App:             spec,
		WarmupAccesses:  1 << 21,
		MeasureAccesses: 1 << 22,
		Seed:            7,
	}

	// Plain LRU: stuck on the plateau.
	lruMPKI, err := sim.RunPoint(base, size, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Talus on Vantage partitioning, LRU replacement. RunPoint profiles
	// the miss curve with the monitor, computes the hull, programs the
	// two shadow partitions, and measures.
	cfg := base
	cfg.Talus = true
	cfg.Scheme = "vantage"
	talusMPKI, err := sim.RunPoint(cfg, size, 2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("libquantum @ %d MB LLC (32 MB cliff)\n", llcMB)
	fmt.Printf("  LRU:   %6.2f MPKI  (IPC %.3f)\n", lruMPKI, sim.IPC(spec, lruMPKI))
	fmt.Printf("  Talus: %6.2f MPKI  (IPC %.3f)\n", talusMPKI, sim.IPC(spec, talusMPKI))
	fmt.Printf("  speedup: %.2fx\n",
		sim.IPC(spec, talusMPKI)/sim.IPC(spec, lruMPKI))
	if talusMPKI < lruMPKI {
		fmt.Println("  → cliff removed: capacity on the plateau is useful again")
	}
}
