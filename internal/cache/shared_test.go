// Tests for the lock-free hit probe: using it must change nothing
// observable — a sequential stream leaves byte-identical state and stats
// whether an array is driven by Access alone (the simulator) or by
// probe-then-fallback (ShardedCache) — arrays that cannot be probed say
// so from construction, and concurrent probing is race-clean with every
// call counted exactly once.

package cache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"talus/internal/hash"
	"talus/internal/partition"
	"talus/internal/policy"
)

// buildPair returns two identically-seeded SetAssoc caches over the
// given scheme.
func buildPair(t *testing.T, mkScheme func() partition.Scheme, factory policy.Factory) (*SetAssoc, *SetAssoc) {
	t.Helper()
	var pair [2]*SetAssoc
	for i := range pair {
		c, err := NewSetAssoc(4096, 16, mkScheme(), factory, 7)
		if err != nil {
			t.Fatal(err)
		}
		pair[i] = c
	}
	return pair[0], pair[1]
}

// driveShared replays addrs through c, preferring the probe and falling
// back to Access exactly as ShardedCache.Access does. It returns the
// hits and how many of them the probe answered.
func driveShared(c *SetAssoc, addrs []uint64, parts []int) (hits, probed int) {
	for i, a := range addrs {
		hit, ok := c.AccessShared(a, parts[i])
		if ok {
			probed++
		} else {
			hit = c.Access(a, parts[i])
		}
		if hit {
			hits++
		}
	}
	return hits, probed
}

// TestSharedHitsMatchesLocked pins the probe's byte-identity: driving
// the same sequential stream through one array via Access only and
// through its twin via probe-then-fallback yields identical hit
// outcomes, stats, owners and tags, across every scheme that advertises
// a stable set index. The probe must also have answered every hit —
// otherwise the comparison is Access against Access.
func TestSharedHitsMatchesLocked(t *testing.T) {
	schemes := map[string]func() partition.Scheme{
		"none":    func() partition.Scheme { return partition.NewNone(2) },
		"way":     func() partition.Scheme { return partition.NewWay(2) },
		"vantage": func() partition.Scheme { return partition.NewVantage(2) },
	}
	for name, mk := range schemes {
		t.Run(name, func(t *testing.T) {
			locked, shared := buildPair(t, mk, policy.LRUFactory)
			rng := hash.NewSplitMix64(0xFEED)
			const n = 200000
			addrs := make([]uint64, n)
			parts := make([]int, n)
			for i := range addrs {
				addrs[i] = rng.Next() % 30000 // ~½ the capacity: plenty of hits and evictions
				parts[i] = int(rng.Next() % 2)
			}
			lockedHits := 0
			for i, a := range addrs {
				if locked.Access(a, parts[i]) {
					lockedHits++
				}
			}
			sharedHits, probed := driveShared(shared, addrs, parts)
			if lockedHits != sharedHits {
				t.Fatalf("hits: locked %d != shared %d", lockedHits, sharedHits)
			}
			if probed != sharedHits {
				t.Fatalf("probe answered %d of %d hits on stable scheme %s", probed, sharedHits, name)
			}
			if ls, ss := locked.Stats(), shared.Stats(); ls != ss {
				t.Fatalf("stats: locked %+v != shared %+v", ls, ss)
			}
			for p := 0; p < 2; p++ {
				if ls, ss := locked.PartStats(p), shared.PartStats(p); ls != ss {
					t.Fatalf("part %d stats: locked %+v != shared %+v", p, ls, ss)
				}
			}
			// Tag arrays must match line for line: the probe may not have
			// perturbed placement at all.
			for li := range locked.tags {
				if locked.owner[li] != shared.owner[li] ||
					(locked.owner[li] >= 0 && locked.tags[li] != shared.tags[li]) {
					t.Fatalf("line %d diverged: locked (%d,%x) shared (%d,%x)",
						li, locked.owner[li], locked.tags[li], shared.owner[li], shared.tags[li])
				}
			}
		})
	}
}

// TestSharedHitsRefusals checks the construction-time gate: an unstable
// scheme (set partitioning's movable ranges) or a policy whose hits move
// shared state (RRIP) makes an array that never answers a probe, however
// warm it is; Ideal is not a prober at all. A ShardedCache over any of
// them takes the shard lock for every access and still counts exactly.
func TestSharedHitsRefusals(t *testing.T) {
	builds := map[string]func() (Shard, error){
		"set/LRU": func() (Shard, error) {
			return NewSetAssoc(1024, 8, partition.NewSet(2), policy.LRUFactory, 1)
		},
		"vantage/SRRIP": func() (Shard, error) {
			return NewSetAssoc(1024, 8, partition.NewVantage(2), policy.SRRIPFactory, 1)
		},
		"ideal": func() (Shard, error) { return NewIdeal(1024, 2) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			c, err := build()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4000; i++ { // warm: plenty of resident lines
				c.Access(uint64(i%300), i%2)
			}
			if p, isProber := c.(SharedProber); isProber {
				for a := uint64(0); a < 300; a++ {
					if _, ok := p.AccessShared(a, int(a%2)); ok {
						t.Fatalf("AccessShared answered for %#x on a stack that cannot be probed", a)
					}
				}
			} else if name != "ideal" {
				t.Fatal("SetAssoc is not a SharedProber")
			}
			if st := c.Stats(); st.Accesses != 4000 || st.Hits == 0 {
				t.Fatalf("refused probes moved the stats: %+v", st)
			}
			sc, err := NewSharded(2, 2048, 5, func(int, int64) (Shard, error) { return build() })
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4000; i++ {
				sc.Access(uint64(i%300), i%2)
			}
			if st := sc.Stats(); st.Accesses != 4000 || st.Hits == 0 {
				t.Fatalf("sharded over %s: %+v, want 4000 accesses with hits", name, st)
			}
		})
	}
}

// sumParts adds up PartStats over every partition.
func sumParts(n int, part func(int) Stats) Stats {
	var total Stats
	for p := 0; p < n; p++ {
		total = total.plus(part(p))
	}
	return total
}

// TestSharedHitsConcurrent hammers the probe under -race: goroutines
// drive overlapping hot streams through AccessShared with locked
// fallback (serialized by a mutex, as ShardedCache does per shard) while
// invalidations run. Accesses == Hits + Misses holds by construction, so
// conservation is checked against the number of calls made, and the
// total against the per-partition counters it is computed from.
func TestSharedHitsConcurrent(t *testing.T) {
	c, err := NewSetAssoc(4096, 16, partition.NewVantage(2), policy.LRUFactory, 3)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // stands in for the shard lock
	const (
		workers = 8
		perG    = 40000
	)
	var calls, hitsSeen atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := hash.NewSplitMix64(uint64(g)*0x9E37 + 1)
			for i := 0; i < perG; i++ {
				addr := rng.Next() % 2000 // hot: mostly probe hits
				p := int(rng.Next() % 2)
				hit, ok := c.AccessShared(addr, p)
				if !ok {
					mu.Lock()
					hit = c.Access(addr, p)
					mu.Unlock()
				}
				calls.Add(1)
				if hit {
					hitsSeen.Add(1)
				}
				if i%997 == 0 {
					mu.Lock()
					c.Invalidate(rng.Next()%2000, p)
					mu.Unlock()
				}
			}
			runtime.Gosched()
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Accesses != calls.Load() || calls.Load() != workers*perG {
		t.Fatalf("accesses %d, calls made %d, want %d", st.Accesses, calls.Load(), workers*perG)
	}
	if st.Hits != hitsSeen.Load() {
		t.Fatalf("hits counted %d, hits returned to callers %d", st.Hits, hitsSeen.Load())
	}
	if sum := sumParts(c.NumPartitions(), c.PartStats); sum != st {
		t.Fatalf("Stats() %+v != sum of PartStats %+v", st, sum)
	}
}

// TestShardedStatsSumShards runs the same hammer one layer up: a
// ShardedCache keeps no counters of its own, so its Stats must equal
// the sum of ShardStats and account for every call made.
func TestShardedStatsSumShards(t *testing.T) {
	sc, err := NewSharded(4, 8192, 11, func(i int, capLines int64) (Shard, error) {
		return NewSetAssoc(capLines, 16, partition.NewVantage(2), policy.LRUFactory, uint64(i)+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perG    = 30000
	)
	var hitsSeen atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := hash.NewSplitMix64(uint64(g)*0x51ED + 7)
			for i := 0; i < perG; i++ {
				addr := rng.Next() % 12000 // past capacity share: hits, misses and evictions
				if sc.Access(addr, int(rng.Next()%2)) {
					hitsSeen.Add(1)
				}
				if i%1009 == 0 {
					sc.Invalidate(rng.Next()%12000, g%2)
				}
			}
		}(g)
	}
	wg.Wait()
	st := sc.Stats()
	if st.Accesses != workers*perG || st.Hits != hitsSeen.Load() || st.Hits+st.Misses != st.Accesses {
		t.Fatalf("stats %+v, want %d accesses and %d hits", st, workers*perG, hitsSeen.Load())
	}
	if sum := sumParts(sc.NumShards(), sc.ShardStats); sum != st {
		t.Fatalf("Stats() %+v != sum of ShardStats %+v", st, sum)
	}
}
