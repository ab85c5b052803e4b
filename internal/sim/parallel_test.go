// Determinism tests for the parallel experiment engine: the parallel
// paths must reproduce the sequential results exactly — same seeds, same
// points, same bytes — regardless of worker count or scheduling.

package sim

import (
	"reflect"
	"testing"

	"talus/internal/cache"
	"talus/internal/hash"
)

// TestRunSweepParallelDeterministic runs the same sweep sequentially and
// at several parallelism levels and demands point-for-point equality.
func TestRunSweepParallelDeterministic(t *testing.T) {
	base := SweepConfig{
		App:             cliffSpec,
		SizesLines:      []int64{2048, 4096, 6144, 8192, 10240, 12288},
		Talus:           true,
		WarmupAccesses:  1 << 15,
		MeasureAccesses: 1 << 16,
		Seed:            17,
		Parallelism:     1,
	}
	seq, err := RunSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		cfg := base
		cfg.Parallelism = par
		got, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got.Points(), seq.Points()) {
			t.Fatalf("parallelism %d diverges from sequential:\n  par %v\n  seq %v",
				par, got, seq)
		}
	}
}

// TestParallelForCoversAllIndices checks the pool visits every index
// exactly once at any worker count.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		const n = 137
		visits := make([]int32, n)
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		ParallelFor(n, workers, func(i int) {
			<-mu
			visits[i]++
			mu <- struct{}{}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers %d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

// TestWorkersResolution pins the Parallelism convention: ≤0 → GOMAXPROCS.
func TestWorkersResolution(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must resolve non-positive to at least 1")
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

// TestShardedPointConservation drives a plain sweep point's worth of
// accesses through a sharded cache built by BuildShardedCache and checks
// the summed shard stats account for every access.
func TestShardedPointConservation(t *testing.T) {
	sc, err := cache.BuildSharded("vantage", 8192, 16, 4, 2, "LRU", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewSplitMix64(3)
	for i := 0; i < 16*1024; i++ {
		sc.Access(rng.Uint64n(16384), 0)
	}
	st := sc.Stats()
	if st.Accesses != 16*1024 || st.Hits+st.Misses != st.Accesses {
		t.Fatalf("conservation violated: %+v", st)
	}
}
