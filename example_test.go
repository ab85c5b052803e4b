package talus_test

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"talus"
)

// ExampleNew builds the full adaptive serving stack — the paper's 8-core
// CMP shape at 1 MB with two partitions — feeds partition 0 a scan
// larger than the cache, and forces one control-loop epoch: monitor →
// hull → Talus → allocator. The scan's miss curve is a cliff at its
// footprint; the loop gives the scanner the capacity, and Talus splits
// its partition into two shadow partitions on the cliff's hull instead
// of leaving it on the LRU plateau.
func ExampleNew() {
	ac, err := talus.New(talus.WithCapacityMB(1), talus.WithPartitions(2), talus.WithSeed(1))
	if err != nil {
		panic(err)
	}
	defer ac.Close()

	for i := 0; i < 100000; i++ {
		ac.Access(uint64(i%20000), 0) // partition 0 scans 20k lines
	}
	if err := ac.ForceEpoch(); err != nil {
		panic(err)
	}
	allocs := ac.Allocations()
	fmt.Println("partitions:", ac.NumLogical())
	fmt.Println("epochs run:", ac.Epochs())
	fmt.Println("allocated to scanner:", allocs[0] > allocs[1])
	fmt.Println("scanner shadow-partitioned:", !ac.Config(0).Degenerate)
	// Output:
	// partitions: 2
	// epochs run: 1
	// allocated to scanner: true
	// scanner shadow-partitioned: true
}

// ExampleNewStore runs the keyed serving layer: tenants map to cache
// partitions, keys hash to line addresses, and every request drives the
// adaptive control loop while real bytes are stored exactly.
func ExampleNewStore() {
	st, err := talus.NewStore(talus.WithTenants("web"), talus.WithSeed(7))
	if err != nil {
		panic(err)
	}
	defer st.Close()

	if _, err := st.Set("web", "greeting", []byte("hello talus")); err != nil {
		panic(err)
	}
	value, hit, err := st.Get("web", "greeting")
	if err != nil {
		panic(err)
	}
	stats, _ := st.Stats("web")
	fmt.Printf("%s (cache hit: %v)\n", value, hit)
	fmt.Printf("gets=%d sets=%d\n", stats.Gets, stats.Sets)
	// Output:
	// hello talus (cache hit: true)
	// gets=1 sets=1
}

// ExampleConfigure walks the paper's worked example (§III): a 4 MB cache
// on a miss curve with a plateau from 2 MB to 5 MB.
func ExampleConfigure() {
	mb := talus.MBToLines
	m := talus.MustCurve([]talus.Point{
		{Size: 0, MPKI: 24},
		{Size: mb(2), MPKI: 12},
		{Size: mb(4.999), MPKI: 12},
		{Size: mb(5), MPKI: 3},
		{Size: mb(10), MPKI: 3},
	})
	cfg, _ := talus.Configure(m, mb(4), 0)
	fmt.Printf("alpha=%gMB beta=%gMB rho=%.3f\n",
		talus.LinesToMB(cfg.Alpha), talus.LinesToMB(cfg.Beta), cfg.RhoIdeal)
	fmt.Printf("s1=%.3fMB s2=%.3fMB predicted=%.1f MPKI\n",
		talus.LinesToMB(cfg.S1), talus.LinesToMB(cfg.S2), cfg.PredictedMPKI)
	// Output:
	// alpha=2MB beta=5MB rho=0.333
	// s1=0.667MB s2=3.333MB predicted=6.0 MPKI
}

// ExampleConvexHull shows the pre-processing step: cliffs vanish from the
// curve handed to the partitioning algorithm.
func ExampleConvexHull() {
	m := talus.MustCurve([]talus.Point{
		{Size: 0, MPKI: 20},
		{Size: 100, MPKI: 19},
		{Size: 200, MPKI: 19}, // plateau
		{Size: 300, MPKI: 2},  // cliff
		{Size: 400, MPKI: 2},
	})
	h := talus.ConvexHull(m)
	fmt.Println("convex:", h.IsConvex(1e-9))
	fmt.Println("at 250 lines:", h.Eval(250), "instead of", m.Eval(250))
	// Output:
	// convex: true
	// at 250 lines: 5 instead of 10.5
}

// ExampleStore_SetTenantWeight reweights a tenant on the live control
// loop. Two identical tenants cycle key sets about 1.5× their fair share
// of a cache that fits neither; raising gold's objective weight to 4 —
// what PUT /v1/control/tenants/gold does over HTTP — makes the allocator
// minimize 4·misses(gold) + misses(bronze), so capacity flows to gold.
// The epoch budget stays the configured one: a weight steers the
// allocation, not the loop's speed.
func ExampleStore_SetTenantWeight() {
	st, err := talus.NewStore(
		talus.WithCapacityMB(0.5),
		talus.WithShards(2),
		talus.WithStaticTenants("gold", "bronze"),
		talus.WithAdaptive(talus.AdaptiveConfig{EpochAccesses: 1 << 15, Seed: 11}),
	)
	if err != nil {
		panic(err)
	}
	defer st.Close()

	keys := make([]string, 9000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	drive := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for _, tenant := range []string{"gold", "bronze"} {
				k := keys[rng.IntN(len(keys))]
				if _, _, err := st.Get(tenant, k); errors.Is(err, talus.ErrNotFound) {
					if _, err := st.Set(tenant, k, []byte("v")); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	goldLines := func() int64 {
		for _, tc := range st.Control().Tenants {
			if tc.Tenant == "gold" {
				return tc.AllocLines
			}
		}
		return 0
	}

	drive(100_000)
	before, budget := goldLines(), st.Control().EpochAccesses
	if err := st.SetTenantWeight("gold", 4); err != nil {
		panic(err)
	}
	drive(100_000)
	fmt.Println("gold's allocation grew:", goldLines() > before)
	fmt.Println("epoch budget unchanged:", st.Control().EpochAccesses == budget)
	// Output:
	// gold's allocation grew: true
	// epoch budget unchanged: true
}
