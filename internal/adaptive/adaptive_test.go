package adaptive_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/cache"
	"talus/internal/hash"
	"talus/internal/sim"
)

// buildAdaptive constructs the full serving stack the way production
// callers do: sharded inner cache, Talus runtime, control loop.
func buildAdaptive(t *testing.T, capacity int64, shards, logical int, cfg adaptive.Config) *adaptive.Cache {
	t.Helper()
	ac, err := sim.BuildAdaptiveCache("vantage", capacity, 16, shards, logical, "LRU", 0.05, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ac
}

// feed drives addrs through Access on partition p and returns the hits.
func feed(ac *adaptive.Cache, addrs []uint64, p int) int {
	n := 0
	for _, a := range addrs {
		if ac.Access(a, p) {
			n++
		}
	}
	return n
}

func TestAdaptiveConvergesOnCliff(t *testing.T) {
	// Partition 0 scans 6144 lines cyclically (cliff at 6144); partition
	// 1 reuses 2048 lines at random. The loop must discover the rand
	// partition's small working set, hand the scanner the rest, and put
	// the scanner's partition on its hull via shadow partitioning — all
	// from its own measurements.
	const capacity = 8192
	const scanLines = 6144
	const randLines = 2048
	ac := buildAdaptive(t, capacity, 1, 2, adaptive.Config{
		EpochAccesses: 1 << 18,
		Seed:          7,
	})

	rng := hash.NewSplitMix64(3)
	var pos uint64
	const batch = 2048
	scanBuf := make([]uint64, batch)
	randBuf := make([]uint64, batch)
	var tailScanHits, tailScanAcc int64
	const perPart = 6 << 20
	for fed := 0; fed < perPart; fed += batch {
		for i := range scanBuf {
			scanBuf[i] = pos | 1<<48
			pos = (pos + 1) % scanLines
			randBuf[i] = rng.Uint64n(randLines) | 2<<48
		}
		n := feed(ac, scanBuf, 0)
		feed(ac, randBuf, 1)
		if fed >= perPart*3/4 {
			tailScanHits += int64(n)
			tailScanAcc += batch
		}
	}

	if ac.Epochs() < 10 {
		t.Fatalf("only %d epochs ran", ac.Epochs())
	}
	if err := ac.Err(); err != nil {
		t.Fatalf("control loop error: %v", err)
	}
	allocs := ac.Allocations()
	if allocs[1] < randLines*3/4 {
		t.Errorf("rand partition got %d lines, needs ≈ %d", allocs[1], randLines)
	}
	if allocs[0] < allocs[1] {
		t.Errorf("scanner got %d ≤ rand's %d lines", allocs[0], allocs[1])
	}
	// The scanner cannot fit (6144 > 8192·0.9 − 2048), so Talus must
	// interpolate its cliff: without shadow partitioning a 4–5k-line LRU
	// partition under a 6144-line scan hits never; on the hull it hits
	// roughly alloc/footprint of the time.
	hitRate := float64(tailScanHits) / float64(tailScanAcc)
	if hitRate < 0.4 {
		t.Errorf("steady-state scan hit rate %.3f; control loop failed to interpolate the cliff", hitRate)
	}
}

func TestAdaptiveRaceHammer(t *testing.T) {
	// Concurrent Access traffic from many goroutines across
	// partitions while epochs reconfigure underneath. Run with -race;
	// afterwards the sharded stats must account for every call made and
	// every hit handed back (Accesses == Hits + Misses holds by
	// construction now, so it proves nothing) and equal the sum over
	// shards they are computed from.
	const capacity = 16384
	const goroutines = 8
	const batch = 512
	const perG = 400 * batch
	ac := buildAdaptive(t, capacity, 4, 2, adaptive.Config{
		EpochAccesses: 1 << 16,
		Seed:          11,
	})

	var wg sync.WaitGroup
	var calls, hitsSeen atomic.Int64
	stopForce := make(chan struct{})
	var forceDone sync.WaitGroup
	forceDone.Add(1)
	go func() {
		// Forced epoch reconfigures racing the traffic: the epoch
		// step drains every monitor slice and reprograms shadow sizes
		// while Access streams through the same monitors and cache.
		defer forceDone.Done()
		for {
			select {
			case <-stopForce:
				return
			default:
			}
			if err := ac.ForceEpoch(); err != nil {
				t.Errorf("forced epoch: %v", err)
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := hash.NewSplitMix64(uint64(g) * 977)
			buf := make([]uint64, batch)
			part := g % 2
			for fed := 0; fed < perG; fed += batch {
				for i := range buf {
					buf[i] = rng.Uint64n(8192) | uint64(part+1)<<48
				}
				hitsSeen.Add(int64(feed(ac, buf, part)))
				calls.Add(batch)
			}
		}(g)
	}
	wg.Wait()
	close(stopForce)
	forceDone.Wait()

	sharded := ac.Shadowed().Inner().(*cache.ShardedCache)
	stats := sharded.Stats()
	if calls.Load() != goroutines*perG || stats.Accesses != calls.Load() {
		t.Fatalf("accesses %d, calls made %d, want %d", stats.Accesses, calls.Load(), goroutines*perG)
	}
	if stats.Hits != hitsSeen.Load() {
		t.Fatalf("hits counted %d, hits returned to callers %d", stats.Hits, hitsSeen.Load())
	}
	var sum cache.Stats
	for i := 0; i < sharded.NumShards(); i++ {
		st := sharded.ShardStats(i)
		sum.Accesses += st.Accesses
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Bypasses += st.Bypasses
	}
	if sum != stats {
		t.Fatalf("Stats() %+v != sum of ShardStats %+v", stats, sum)
	}
	if ac.Epochs() == 0 {
		t.Fatal("no epochs ran under concurrent traffic")
	}
	if err := ac.Err(); err != nil {
		t.Fatalf("control loop error: %v", err)
	}
	// The loop must still be live after the hammer: force one more epoch.
	if err := ac.ForceEpoch(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionRangeValidation is the regression test for the
// out-of-range partition bug: Access/Curve/Config with a
// bad p used to panic deep inside monSlot indexing with a bare bounds
// error; they must now fail fast with a descriptive message.
func TestPartitionRangeValidation(t *testing.T) {
	ac := buildAdaptive(t, 4096, 1, 2, adaptive.Config{Seed: 1})
	wantPanic := func(name string, p int, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s(p=%d): no panic", name, p)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, fmt.Sprintf("partition %d out of range [0,2)", p)) {
				t.Fatalf("%s(p=%d): panic = %v, want descriptive range message", name, p, r)
			}
		}()
		fn()
	}
	for _, p := range []int{-1, 2, 100} {
		wantPanic("Access", p, func() { ac.Access(1, p) })
		wantPanic("Curve", p, func() { ac.Curve(p) })
		wantPanic("Config", p, func() { ac.Config(p) })
	}
	// In-range indices still work.
	ac.Access(1, 0)
	ac.Access(2, 1)
	if c := ac.Curve(1); c != nil {
		t.Fatalf("curve before first epoch = %v", c)
	}
}
