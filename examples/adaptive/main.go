// Adaptive runtime demo: the zero-config path. Construct an
// AdaptiveCache, feed it traffic, and watch it converge — no offline
// miss curves, no hand-wired configuration. The cache's embedded UMONs
// measure each partition's miss curve from the live stream; every epoch
// the control loop convexifies the curves, runs hill climbing over the
// hulls, and reprograms shadow sizes and sampling rates.
//
// The traffic is the cliff scenario from the paper's worked example: one
// partition scans 5 MB cyclically (a miss-curve cliff at 5 MB), the
// other reuses a 2 MB working set at random. A naive fair split of the
// 6 MB cache (3 MB each) would leave the scanner missing on every
// access; the adaptive loop discovers the cliff's hull and lands the
// scanner on its interpolated slope via shadow partitioning.
//
// Run with:
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"talus"
	"talus/internal/hash"
)

func main() {
	mb := talus.MBToLines
	capacity := int64(mb(6))

	// Zero config: defaults pick the epoch length, EWMA decay, and the
	// hill-climbing allocator. Two logical partitions, four shards so
	// the stack is goroutine-safe (this demo feeds it sequentially).
	ac, err := talus.New(talus.WithCapacity(capacity), talus.WithAssoc(16),
		talus.WithShards(4), talus.WithPartitions(2), talus.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}

	scanLines := int64(mb(5))
	randLines := int64(mb(2))
	rng := hash.NewSplitMix64(7)
	var scanPos uint64

	// 24 M accesses per partition, interleaved in runs.
	const run = 4096
	for fed := 0; fed < 24<<20; fed += run {
		for i := 0; i < run; i++ {
			ac.Access(scanPos|1<<48, 0)
			scanPos = (scanPos + 1) % uint64(scanLines)
		}
		for i := 0; i < run; i++ {
			ac.Access(rng.Uint64n(uint64(randLines))|2<<48, 1)
		}
	}

	allocs := ac.Allocations()
	fmt.Printf("converged after %d epochs\n\n", ac.Epochs())
	for p, name := range []string{"scan (5 MB cyclic)", "rand (2 MB reuse)"} {
		cfg := ac.Config(p)
		fmt.Printf("partition %d — %s\n", p, name)
		fmt.Printf("  allocation: %.2f MB\n", talus.LinesToMB(float64(allocs[p])))
		if cfg.Degenerate {
			fmt.Printf("  talus:      single shadow partition (already on the hull)\n")
		} else {
			fmt.Printf("  talus:      α=%.2f MB β=%.2f MB ρ=%.3f → predicted %.1f misses/k-access\n",
				talus.LinesToMB(cfg.Alpha), talus.LinesToMB(cfg.Beta), cfg.Rho, cfg.PredictedMPKI)
		}
	}
	stats := ac.Shadowed().Inner().(*talus.ShardedCache).Stats()
	fmt.Printf("\noverall hit ratio: %.3f over %d accesses\n", stats.HitRate(), stats.Accesses)
}
