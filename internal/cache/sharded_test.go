package cache

import (
	"sync"
	"sync/atomic"
	"testing"

	"talus/internal/hash"
	"talus/internal/partition"
	"talus/internal/policy"
)

// buildSharded constructs an n-shard LRU cache of totalLines lines with
// nParts partitions per shard.
func buildSharded(t testing.TB, nShards int, totalLines int64, nParts int) *ShardedCache {
	t.Helper()
	sc, err := NewSharded(nShards, totalLines, 42, func(i int, capLines int64) (Shard, error) {
		return NewSetAssoc(capLines, 8, partition.NewNone(nParts), policy.LRUFactory, uint64(1000+i))
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestShardedGeometry(t *testing.T) {
	sc := buildSharded(t, 5, 16384, 1)
	if got := sc.NumShards(); got != 5 {
		t.Fatalf("NumShards = %d, want 5", got)
	}
	// Shard capacities must sum to the total (each shard rounds its own
	// geometry, but 16384/5-line shards at 8 ways round cleanly enough to
	// check the split sums).
	var sum int64
	for i := 0; i < sc.NumShards(); i++ {
		sum += sc.Shard(i).Capacity()
	}
	if sum != sc.Capacity() {
		t.Fatalf("shard capacities sum to %d, Capacity() = %d", sum, sc.Capacity())
	}
	var split int64
	for i := 0; i < 5; i++ {
		split += ShardCapacity(16384, 5, i)
	}
	if split != 16384 {
		t.Fatalf("ShardCapacity split sums to %d, want 16384", split)
	}
}

// TestSplitTargets checks SetPartitionSizes's split invariants: each
// partition's per-shard targets sum to its total, and whenever the
// summed targets fit the summed budgets, no shard's targets exceed its
// own budget (the greedy remainder placement never stacks several
// partitions' remainders onto one shard past its capacity).
func TestSplitTargets(t *testing.T) {
	budgetsOf := func(total int64, n int) []int64 {
		b := make([]int64, n)
		for i := range b {
			b[i] = ShardCapacity(total, n, i)
		}
		return b
	}
	for _, tc := range []struct {
		budgets []int64
		sizes   []int64
	}{
		{budgetsOf(10, 2), []int64{5, 5}},
		{budgetsOf(100, 8), []int64{50, 50}}, // remainder stacking regression
		{budgetsOf(40, 3), []int64{10, 10, 10, 10}},
		{budgetsOf(29488, 8), []int64{29488}},
		{budgetsOf(64, 5), []int64{0, 7, 13}},
		{[]int64{13, 13, 13, 13, 12, 12, 12, 12}, []int64{33, 33, 33}},
		// Uneven budgets (set-boundary rounding skews shards by >1 line):
		// an even base split would overdraw the smaller shard.
		{[]int64{936, 921}, []int64{1857}},
		{[]int64{936, 921}, []int64{929, 928}},
		{[]int64{100, 1}, []int64{101}},
		{[]int64{0, 0}, []int64{4}}, // degenerate budgets: even fallback
	} {
		out := splitTargets(tc.sizes, tc.budgets)
		var grand, budget int64
		for _, s := range tc.sizes {
			grand += s
		}
		for _, b := range tc.budgets {
			budget += b
		}
		for p, total := range tc.sizes {
			var sum int64
			for i := range tc.budgets {
				if out[i][p] < 0 {
					t.Fatalf("negative target %d for shard %d partition %d (%+v)", out[i][p], i, p, tc)
				}
				sum += out[i][p]
			}
			if sum != total {
				t.Fatalf("partition %d targets sum to %d, want %d (%+v)", p, sum, total, tc)
			}
		}
		if grand <= budget {
			for i, b := range tc.budgets {
				var load int64
				for p := range tc.sizes {
					load += out[i][p]
				}
				if load > b {
					t.Fatalf("shard %d targets sum to %d over budget %d (%+v)", i, load, b, tc)
				}
			}
		}
	}
}

// TestShardedFullCapacityTargets programs partition sizes summing to the
// entire partitionable capacity on a validating (Ideal) backing — the
// remainder-stacking case that a fixed split rejects.
func TestShardedFullCapacityTargets(t *testing.T) {
	sc, err := NewSharded(8, 100, 3, func(i int, capLines int64) (Shard, error) {
		return NewIdeal(capLines, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	total := sc.PartitionableCapacity()
	if err := sc.SetPartitionSizes([]int64{total / 2, total - total/2}); err != nil {
		t.Fatalf("full-capacity split rejected: %v", err)
	}

	// Shards with budgets differing by far more than one line (as after
	// set-boundary rounding): a proportional split must still fit.
	uneven := []int64{936, 921}
	sc, err = NewSharded(2, 1857, 3, func(i int, capLines int64) (Shard, error) {
		return NewIdeal(uneven[i], 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	total = sc.PartitionableCapacity()
	if total != 1857 {
		t.Fatalf("PartitionableCapacity = %d, want 1857", total)
	}
	if err := sc.SetPartitionSizes([]int64{total, 0}); err != nil {
		t.Fatalf("uneven full-capacity split rejected: %v", err)
	}
	if err := sc.SetPartitionSizes([]int64{total / 2, total - total/2}); err != nil {
		t.Fatalf("uneven two-partition split rejected: %v", err)
	}
	if err := sc.SetPartitionSizes([]int64{-1, total}); err == nil {
		t.Fatal("negative partition size must be rejected")
	}
}

// TestShardedConcurrentConservation hammers one cache from many
// goroutines and checks that the aggregated counters conserve every
// access issued.
func TestShardedConcurrentConservation(t *testing.T) {
	sc := buildSharded(t, 8, 32768, 2)
	const (
		goroutines = 16
		perG       = 40 * 256 // accesses per goroutine
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := hash.NewSplitMix64(uint64(g) * 0x9E3779B97F4A7C15)
			for i := 0; i < perG; i++ {
				addr := rng.Uint64n(65536)
				sc.Access(addr, int(rng.Uint64n(2)))
			}
		}(g)
	}
	wg.Wait()

	st := sc.Stats()
	want := int64(goroutines * perG)
	if st.Accesses != want {
		t.Fatalf("Accesses = %d, want %d", st.Accesses, want)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("Hits (%d) + Misses (%d) != Accesses (%d)", st.Hits, st.Misses, st.Accesses)
	}
	var perShard Stats
	for i := 0; i < sc.NumShards(); i++ {
		s := sc.ShardStats(i)
		perShard.Accesses += s.Accesses
		perShard.Hits += s.Hits
		perShard.Misses += s.Misses
	}
	if perShard != st {
		t.Fatalf("per-shard sum %+v != aggregate %+v", perShard, st)
	}
}

// TestShardedConcurrentResize reconfigures partition sizes while traffic
// is in flight; under -race this proves SetPartitionSizes and Access are
// safely interleaved.
func TestShardedConcurrentResize(t *testing.T) {
	sc, err := NewSharded(4, 16384, 9, func(i int, capLines int64) (Shard, error) {
		return NewSetAssoc(capLines, 8, partition.NewVantage(2), policy.LRUFactory, uint64(i))
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := hash.NewSplitMix64(uint64(g) + 31)
			for {
				select {
				case <-stop:
					return
				default:
				}
				sc.Access(rng.Uint64n(32768), int(rng.Uint64n(2)))
			}
		}(g)
	}
	total := sc.PartitionableCapacity()
	for r := 0; r < 50; r++ {
		a := total * int64(r%8+1) / 9
		if err := sc.SetPartitionSizes([]int64{a, total - a}); err != nil {
			t.Errorf("SetPartitionSizes: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()

	if st := sc.Stats(); st.Hits+st.Misses != st.Accesses {
		t.Fatalf("conservation violated: %+v", st)
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

// TestShardedStatsSumShards hammers a ShardedCache under -race with
// overlapping hot streams and invalidations. It keeps no counters of
// its own, so its Stats must equal the sum of ShardStats, every shard's
// total must equal the sum of its PartStats, and the result must
// account for every call made and every hit returned to a caller.
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
	for i := 0; i < sc.NumShards(); i++ {
		c := sc.Shard(i).(*SetAssoc)
		if sum := sumParts(c.NumPartitions(), c.PartStats); sum != c.Stats() {
			t.Fatalf("shard %d: Stats() %+v != sum of PartStats %+v", i, c.Stats(), sum)
		}
	}
}
