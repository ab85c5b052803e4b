// Benchmarks: one per paper table/figure (regenerating a reduced-scale
// version of each artifact through the same code paths as cmd/talus-exp),
// plus micro-benchmarks of the operations on Talus's critical paths —
// hull construction, shadow-partition configuration, the H3 sampler, the
// cache access path, and monitor observation.
//
// Run with:
//
//	go test -bench=. -benchmem
package talus

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/cache"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/experiments"
	"talus/internal/hash"
	"talus/internal/hull"
	"talus/internal/monitor"
	"talus/internal/partition"
	"talus/internal/policy"
	"talus/internal/sim"
	"talus/internal/workload"
)

// --- figure/table regeneration benches --------------------------------

// benchExperiment runs one experiment at benchmark (Tiny) scale; under
// `go test -short` it drops to the Short smoke scale so the full
// `-bench . -benchtime 1x -short` suite finishes in under a minute.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := experiments.Config{Scale: experiments.ScaleTiny, Seed: 42, W: io.Discard}
	if testing.Short() {
		cfg.Scale = experiments.ScaleShort
	}
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01Libquantum(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig02ShadowConfig(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig03Hull(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig05Bypass(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig06BypassCurve(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig08Schemes(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig09SRRIP(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10Policies(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11IPC(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12Mixes(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13Fairness(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkTable1Config(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2Gmeans(b *testing.B)      { benchExperiment(b, "table2") }

// --- core operation micro-benches --------------------------------------

// benchCurve builds a jagged 256-point miss curve.
func benchCurve() *curve.Curve {
	pts := make([]curve.Point, 256)
	m := 40.0
	for i := range pts {
		if i%16 == 15 {
			m *= 0.6 // periodic cliffs
		} else {
			m *= 0.998
		}
		pts[i] = curve.Point{Size: float64((i + 1) * 1024), MPKI: m}
	}
	return curve.MustNew(pts)
}

// BenchmarkConvexHull measures the pre-processing step's cost per curve
// (the paper's "linear time in the size of the miss curve").
func BenchmarkConvexHull(b *testing.B) {
	c := benchCurve()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hull.Lower(c)
	}
}

// BenchmarkConfigure measures the per-partition post-processing step
// (hull + anchors + ρ), which runs once per partition per 10 ms interval.
func BenchmarkConfigure(b *testing.B) {
	c := benchCurve()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Configure(c, 128*1024, core.DefaultMargin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkH3Hash measures the sampler's hash (one per cache access in
// hardware; on the simulator's critical path too).
func BenchmarkH3Hash(b *testing.B) {
	h := hash.NewH3(1, 64)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= h.Hash(uint64(i) * 0x9E3779B97F4A7C15)
	}
	_ = sink
}

// BenchmarkSampler measures the full α/β routing decision.
func BenchmarkSampler(b *testing.B) {
	s := hash.NewSampler(1)
	s.SetRate(1.0 / 3)
	n := 0
	for i := 0; i < b.N; i++ {
		if s.ToAlpha(uint64(i)) {
			n++
		}
	}
	_ = n
}

// BenchmarkCacheAccessLRU measures the simulator's hot path: one access
// to a 1 MB 16-way LRU cache with a ~2× working set.
func BenchmarkCacheAccessLRU(b *testing.B) {
	c, err := cache.NewSetAssoc(16384, 16, partition.NewNone(1), policy.LRUFactory, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%32768), 0)
	}
}

// BenchmarkCacheAccessVantageTalus measures the partitioned datapath:
// sampler + Vantage victim selection with 2 shadow partitions.
func BenchmarkCacheAccessVantageTalus(b *testing.B) {
	inner, err := cache.NewSetAssoc(16384, 16, partition.NewVantage(2), policy.LRUFactory, 1)
	if err != nil {
		b.Fatal(err)
	}
	tc, err := core.NewShadowedCache(inner, 1, core.DefaultMargin, 2)
	if err != nil {
		b.Fatal(err)
	}
	mc := curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 30}, {Size: 16000, MPKI: 30}, {Size: 32768, MPKI: 1}, {Size: 65536, MPKI: 1},
	})
	if err := tc.Reconfigure([]int64{inner.PartitionableCapacity()}, []*curve.Curve{mc}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Access(uint64(i%32768), 0)
	}
}

// --- concurrency layer benches ------------------------------------------

// benchSweepConfig is a 12-point sweep of a small scanning app, sized so
// points cost roughly the same and parallel speedup is visible: compare
// BenchmarkSweepSequential and BenchmarkSweepParallel in BENCH_*.json to
// track the parallel engine's scaling across PRs.
func benchSweepConfig(parallelism int) sim.SweepConfig {
	spec := workload.Spec{
		Name: "benchscan", APKI: 20, CPIBase: 0.5, MLP: 2,
		Build: func() workload.Pattern { return &workload.Scan{Lines: 8192} },
	}
	sizes := make([]int64, 12)
	for i := range sizes {
		sizes[i] = int64(2048 + 1024*i)
	}
	return sim.SweepConfig{
		App:             spec,
		SizesLines:      sizes,
		WarmupAccesses:  1 << 16,
		MeasureAccesses: 1 << 18,
		Seed:            42,
		Parallelism:     parallelism,
	}
}

func benchSweep(b *testing.B, parallelism int) {
	b.Helper()
	cfg := benchSweepConfig(parallelism)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSequential is the single-worker baseline.
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel fans the same sweep across GOMAXPROCS workers;
// results are byte-identical to the sequential run.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// benchShardedCache builds the concurrent serving cache: 1 MB striped
// over 8 locked LRU shards.
func benchShardedCache(b *testing.B) *cache.ShardedCache {
	b.Helper()
	sc, err := cache.BuildSharded("none", 16384, 16, 8, 1, "LRU", 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// benchGoroutineSeed hands each RunParallel goroutine a distinct RNG
// seed: identical seeds would make every goroutine replay the same
// address stream in lockstep (all hitting the same shard at once), which
// misrepresents both contention and hit behavior.
var benchGoroutineSeed atomic.Uint64

// BenchmarkShardedAccess measures the concurrent hot path: one lock
// acquisition per access, all goroutines hammering at once.
func BenchmarkShardedAccess(b *testing.B) {
	sc := benchShardedCache(b)
	b.RunParallel(func(pb *testing.PB) {
		rng := hash.NewSplitMix64(benchGoroutineSeed.Add(1))
		for pb.Next() {
			sc.Access(rng.Uint64n(32768), 0)
		}
	})
}

// BenchmarkShadowedShardedAccess measures the full concurrent Talus
// stack: sampler routing plus sharded access.
func BenchmarkShadowedShardedAccess(b *testing.B) {
	inner, err := cache.BuildSharded("vantage", 16384, 16, 8, 2, "LRU", 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	tc, err := core.NewShadowedCache(inner, 1, core.DefaultMargin, 2)
	if err != nil {
		b.Fatal(err)
	}
	mc := curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 30}, {Size: 16000, MPKI: 30}, {Size: 32768, MPKI: 1}, {Size: 65536, MPKI: 1},
	})
	if err := tc.Reconfigure([]int64{inner.PartitionableCapacity()}, []*curve.Curve{mc}); err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		rng := hash.NewSplitMix64(benchGoroutineSeed.Add(1))
		for pb.Next() {
			tc.Access(rng.Uint64n(32768), 0)
		}
	})
}

// BenchmarkAdaptiveAccess measures the whole self-tuning stack:
// per-partition monitor observation, sampler routing, sharded access,
// and the epoch reconfigurations the traffic itself triggers.
func BenchmarkAdaptiveAccess(b *testing.B) {
	ac, err := adaptive.Build("vantage", 16384, 16, 8, 2, core.DefaultMargin,
		adaptive.Config{EpochAccesses: 1 << 18, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		rng := hash.NewSplitMix64(benchGoroutineSeed.Add(1))
		part := int(rng.Uint64n(2))
		for pb.Next() {
			ac.Access(rng.Uint64n(32768)|uint64(part+1)<<48, part)
		}
	})
}

// --- serving-layer benches ------------------------------------------------

// benchServingStore builds the keyed store the serving benches run
// against: the zero-option production shape (8 MB, 8 shards, 8
// partitions, 2^20-access epochs) with one pre-registered tenant — the
// same stack `talus-serve` runs with no flags, so these numbers track
// what the HTTP front-end's store layer costs.
func benchServingStore(b *testing.B) *Store {
	b.Helper()
	st, err := NewStore(WithTenants("bench"), WithAdaptive(AdaptiveConfig{Seed: 42}))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	})
	return st
}

// benchStoreKeys pre-renders the key set so key formatting stays out of
// the measured loop. 4096 keys over a 16384-line cache: a warm but not
// fully resident working set.
func benchStoreKeys() []string {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = "user:" + string(rune('a'+i%26)) + ":" + fmt.Sprint(i)
	}
	return keys
}

// BenchmarkStoreGet measures the sequential keyed-Get hot path:
// hash + monitor + cache access + value-map read.
func BenchmarkStoreGet(b *testing.B) {
	st := benchServingStore(b)
	keys := benchStoreKeys()
	val := make([]byte, 64)
	for _, k := range keys {
		if _, err := st.Set("bench", k, val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Get("bench", keys[i&4095]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGetParallel measures concurrent keyed Gets on one hot
// tenant.
func BenchmarkStoreGetParallel(b *testing.B) {
	st := benchServingStore(b)
	keys := benchStoreKeys()
	val := make([]byte, 64)
	for _, k := range keys {
		if _, err := st.Set("bench", k, val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := hash.NewSplitMix64(benchGoroutineSeed.Add(1))
		for pb.Next() {
			if _, _, err := st.Get("bench", keys[rng.Uint64n(4096)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkStoreSetParallel measures concurrent keyed Puts (value copy,
// value-map write lock, cache access).
func BenchmarkStoreSetParallel(b *testing.B) {
	st := benchServingStore(b)
	keys := benchStoreKeys()
	val := make([]byte, 64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := hash.NewSplitMix64(benchGoroutineSeed.Add(1))
		for pb.Next() {
			if _, err := st.Set("bench", keys[rng.Uint64n(4096)], val); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkMonitorObserve measures monitor overhead per access on the
// bank as requests reach it (most accesses fail the sampling filter, as
// in hardware).
func BenchmarkMonitorObserve(b *testing.B) {
	m, err := monitor.NewSlicedEpochMonitor(131072, 0, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(uint64(i % 100000))
	}
}

// BenchmarkWorkloadNext measures clone stream generation (mcf: zipf +
// mixture, the most expensive generator).
func BenchmarkWorkloadNext(b *testing.B) {
	spec, _ := workload.Lookup("mcf")
	app := workload.NewApp(spec, 1)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= app.Next()
	}
	_ = sink
}

// BenchmarkMIN measures offline Belady simulation (used by the
// Corollary 7 validation).
func BenchmarkMIN(b *testing.B) {
	rng := hash.NewSplitMix64(1)
	trace := make([]uint64, 1<<16)
	for i := range trace {
		trace[i] = rng.Uint64n(4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.SimulateMIN(trace, 1024)
	}
}
