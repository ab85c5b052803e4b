// Concurrency tests for the Talus runtime over a sharded inner cache:
// run under -race these prove the full serving stack — sampler routing,
// shard access, and epoch reconfiguration — is goroutine-safe,
// and that aggregated hit/miss counts conserve every access issued.

package core

import (
	"sync"
	"testing"

	"talus/internal/cache"
	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/partition"
	"talus/internal/policy"
)

// newShardedShadowed builds a ShadowedCache (1 logical partition) over an
// nShards-sharded Vantage/LRU cache of totalLines lines.
func newShardedShadowed(t testing.TB, nShards int, totalLines int64) (*ShadowedCache, *cache.ShardedCache) {
	t.Helper()
	inner, err := cache.NewSharded(nShards, totalLines, 21, func(i int, capLines int64) (cache.Shard, error) {
		return cache.NewSetAssoc(capLines, 16, partition.NewVantage(2), policy.LRUFactory, uint64(100+i))
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewShadowedCache(inner, 1, DefaultMargin, 33)
	if err != nil {
		t.Fatal(err)
	}
	return sc, inner
}

// cliffCurve is a miss curve with one sharp cliff, forcing a
// non-degenerate two-partition Talus configuration at mid sizes.
func cliffCurve(totalLines int64) *curve.Curve {
	s := float64(totalLines)
	return curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 40},
		{Size: 1.5 * s, MPKI: 39},
		{Size: 2 * s, MPKI: 2},
		{Size: 4 * s, MPKI: 1},
	})
}

// TestShadowedConcurrentHammer drives the Talus runtime from many
// goroutines while another goroutine keeps reprogramming shadow
// partitions, then checks access conservation.
func TestShadowedConcurrentHammer(t *testing.T) {
	const totalLines = 32768
	sc, inner := newShardedShadowed(t, 8, totalLines)
	mcurve := cliffCurve(totalLines)
	budget := inner.PartitionableCapacity()
	if err := sc.Reconfigure([]int64{budget}, []*curve.Curve{mcurve}); err != nil {
		t.Fatal(err)
	}
	if cfg := sc.Config(0); cfg.Degenerate {
		t.Fatalf("want a non-degenerate Talus config for the hammer, got %+v", cfg)
	}

	const (
		goroutines = 12
		perG       = 30 * 512 // accesses per goroutine
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := hash.NewSplitMix64(uint64(g)*0x9E3779B97F4A7C15 + 5)
			for i := 0; i < perG; i++ {
				sc.Access(rng.Uint64n(totalLines*4), 0)
			}
		}(g)
	}
	// Concurrent reconfiguration: the runtime's 10 ms epoch boundary,
	// compressed. Each accessor observes either the old or new rate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 40; r++ {
			if err := sc.Reconfigure([]int64{budget}, []*curve.Curve{mcurve}); err != nil {
				t.Errorf("Reconfigure: %v", err)
				return
			}
			_ = sc.Config(0)
			_ = sc.ShadowSizes()
		}
	}()
	wg.Wait()

	st := inner.Stats()
	want := int64(goroutines * perG)
	if st.Accesses != want {
		t.Fatalf("Accesses = %d, want %d", st.Accesses, want)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("Hits (%d) + Misses (%d) != Accesses (%d)", st.Hits, st.Misses, st.Accesses)
	}
}
