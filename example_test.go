package talus_test

import (
	"fmt"
	"os"
	"path/filepath"

	"talus"
)

// ExampleNew builds the full adaptive serving stack with zero options —
// the paper's 8-core CMP shape — feeds it a scanning stream, and forces
// one control-loop epoch: monitor → hull → Talus → allocator.
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
	// Output:
	// partitions: 2
	// epochs run: 1
	// allocated to scanner: true
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

// ExampleRecordTrace captures two workload clones' interleaved access
// stream to a trace file, then loads it back as workload specs — the
// record/replay round trip the trace subsystem guarantees is exact.
func ExampleRecordTrace() {
	dir, err := os.MkdirTemp("", "talus-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "mix.trc")

	libq, _ := talus.LookupWorkload("libquantum")
	mcf, _ := talus.LookupWorkload("mcf")
	n, err := talus.RecordTrace(path, []talus.WorkloadSpec{libq, mcf}, 10000, 42, false)
	if err != nil {
		panic(err)
	}
	specs, err := talus.WorkloadsFromTrace(path)
	if err != nil {
		panic(err)
	}
	fmt.Println("records:", n)
	fmt.Println("replayable apps:", len(specs))
	// Output:
	// records: 20000
	// replayable apps: 2
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

// ExampleOptimalBypass reproduces Fig. 5: bypassing helps on the cliff
// but cannot match the hull (Corollary 8).
func ExampleOptimalBypass() {
	mb := talus.MBToLines
	m := talus.MustCurve([]talus.Point{
		{Size: 0, MPKI: 24},
		{Size: mb(2), MPKI: 12},
		{Size: mb(4.999), MPKI: 12},
		{Size: mb(5), MPKI: 3},
		{Size: mb(10), MPKI: 3},
	})
	bc, _ := talus.OptimalBypass(m, mb(4))
	fmt.Printf("admit %.0f%% of accesses, cache acts as %gMB\n",
		bc.Rho*100, talus.LinesToMB(bc.Emulated))
	fmt.Printf("bypassing: %.1f MPKI, Talus: %.1f MPKI\n",
		bc.MPKI, talus.InterpolatedMPKI(m, mb(4)))
	// Output:
	// admit 80% of accesses, cache acts as 5MB
	// bypassing: 7.2 MPKI, Talus: 6.0 MPKI
}

// ExampleHillClimb shows why convexity matters: on hulls, trivial hill
// climbing matches the exact DP optimum.
func ExampleHillClimb() {
	cliff := talus.MustCurve([]talus.Point{
		{Size: 0, MPKI: 20}, {Size: 490, MPKI: 20}, {Size: 500, MPKI: 1}, {Size: 800, MPKI: 1},
	})
	convex := talus.MustCurve([]talus.Point{
		{Size: 0, MPKI: 10}, {Size: 200, MPKI: 4}, {Size: 800, MPKI: 2},
	})
	raw := []*talus.MissCurve{cliff, convex}

	onRaw, _ := talus.HillClimb(raw, 800, 10)
	onHulls, _ := talus.HillClimb(talus.Convexify(raw), 800, 10)
	fmt.Println("hill on raw curves: ", onRaw)
	fmt.Println("hill on Talus hulls:", onHulls)
	// On the raw curves, hill climbing sees zero marginal gain anywhere
	// on the cliff app's plateau and starves it; on the hulls it walks
	// straight to the cliff's foot.
	// Output:
	// hill on raw curves:  [0 800]
	// hill on Talus hulls: [500 300]
}
