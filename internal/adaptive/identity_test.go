package adaptive_test

import (
	"runtime"
	"sync"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/hash"
	"talus/internal/monitor"
)

// TestAdaptiveMonitorMatchesBaseline pins the sliced-monitor identity at
// the stack level: the per-partition 8-slice monitors inside a full
// adaptive cache — fed by concurrent Access across goroutines, drained by
// forced epoch reconfigures — hold byte-identical histograms and produce
// bit-identical epoch curves to standalone one-slice monitors fed the
// same streams sequentially. Each goroutine's stream is confined to
// one monitor slice (SampledSlice), which keeps every monitor set's
// access order deterministic under any goroutine interleaving; the
// shadow sampler and cache underneath see fully racing traffic.
func TestAdaptiveMonitorMatchesBaseline(t *testing.T) {
	const (
		capacity = 16384
		logical  = 2
		seed     = 21
	)
	ac := buildAdaptive(t, capacity, 4, logical, adaptive.Config{
		EpochAccesses: 1 << 40, // epochs only when forced
		Seed:          seed,
	})
	budget := ac.Shadowed().Inner().PartitionableCapacity()

	// Baselines: one single-slice monitor per partition, at exactly the
	// seeds the adaptive constructor derives.
	base := make([]*monitor.SlicedEpochMonitor, logical)
	for p := range base {
		em, err := monitor.NewSlicedEpochMonitor(budget, 0, seed+uint64(p)*0x9E3779B9, 1)
		if err != nil {
			t.Fatal(err)
		}
		base[p] = em
	}

	// Pre-partition each partition's address stream by owning slice.
	streams := make([][][]uint64, logical)
	var totalFed int64
	for p := 0; p < logical; p++ {
		sm := ac.Monitor(p)
		streams[p] = make([][]uint64, sm.Slices())
		rng := hash.NewSplitMix64(uint64(p)*0xD1CE + 5)
		for i := 0; i < 1<<16; i++ {
			addr := rng.Next() % 20000
			si, sampled := sm.SampledSlice(addr)
			if !sampled {
				continue // filtered identically by both monitors
			}
			streams[p][si] = append(streams[p][si], addr)
			totalFed++
		}
	}

	compare := func(round int) {
		t.Helper()
		for p := 0; p < logical; p++ {
			bh, ba := base[p].HistogramSnapshot()
			sh, sa := ac.Monitor(p).HistogramSnapshot()
			for i := range bh {
				if ba[i] != sa[i] {
					t.Fatalf("round %d part %d array %d: accesses %d (baseline) != %d (stack)",
						round, p, i, ba[i], sa[i])
				}
				for d := range bh[i] {
					if bh[i][d] != sh[i][d] {
						t.Fatalf("round %d part %d array %d depth %d: hits %d (baseline) != %d (stack)",
							round, p, i, d, bh[i][d], sh[i][d])
					}
				}
			}
		}
	}

	const rounds = 3
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for p := 0; p < logical; p++ {
			for _, stream := range streams[p] {
				if len(stream) == 0 {
					continue
				}
				wg.Add(1)
				go func(p int, stream []uint64) {
					defer wg.Done()
					for i := 0; i < len(stream); {
						n := min(48+i%97, len(stream)-i)
						for _, a := range stream[i : i+n] {
							ac.Access(a, p)
						}
						i += n
						runtime.Gosched()
					}
				}(p, stream)
			}
		}
		wg.Wait()
		for p := 0; p < logical; p++ {
			for _, stream := range streams[p] {
				for _, a := range stream {
					base[p].Observe(a)
				}
			}
		}
		compare(r)

		// Close the epoch on both sides. The stack's units are the summed
		// per-partition access counts (epochBody's shared denominator);
		// every address fed this round counted once.
		if err := ac.ForceEpoch(); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < logical; p++ {
			bc, err := base[p].EpochCurve(float64(totalFed))
			if err != nil {
				t.Fatal(err)
			}
			scv := ac.Curve(p)
			if scv == nil {
				t.Fatalf("round %d part %d: stack curve missing", r, p)
			}
			bp, sp := bc.Points(), scv.Points()
			if len(bp) != len(sp) {
				t.Fatalf("round %d part %d: %d points (baseline) != %d (stack)", r, p, len(bp), len(sp))
			}
			for i := range bp {
				if bp[i] != sp[i] {
					t.Fatalf("round %d part %d point %d: baseline %+v stack %+v", r, p, i, bp[i], sp[i])
				}
			}
		}
		compare(r) // post-decay state must match too
	}
}
