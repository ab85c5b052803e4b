package sim

import (
	"testing"

	"talus/internal/policy"
	"talus/internal/workload"
)

// TestMINConvexOnCloneTrace validates Corollary 7 on a real clone's
// recorded access stream (not just synthetic traces): Belady MIN's miss
// counts must be convex in capacity on an omnetpp trace.
func TestMINConvexOnCloneTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("MIN over a long trace is slow")
	}
	spec, ok := workload.Lookup("omnetpp")
	if !ok {
		t.Fatal("omnetpp missing")
	}
	app := workload.NewApp(spec, 99)
	tr := make([]uint64, 1<<18)
	for i := range tr {
		tr[i] = app.Next()
	}

	// Capacities around the clone's working sets, coarse steps.
	caps := []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16}
	misses := make([]int, len(caps))
	for i, c := range caps {
		misses[i] = policy.SimulateMIN(tr, c)
	}
	// Non-increasing.
	for i := 1; i < len(misses); i++ {
		if misses[i] > misses[i-1] {
			t.Fatalf("MIN misses increased with capacity: %v", misses)
		}
	}
	// Convexity in capacity: the miss reduction *per line* must shrink as
	// capacity grows (slopes compared because the grid doubles).
	for i := 2; i < len(misses); i++ {
		s1 := float64(misses[i-2]-misses[i-1]) / float64(caps[i-1]-caps[i-2])
		s2 := float64(misses[i-1]-misses[i]) / float64(caps[i]-caps[i-1])
		if s2 > s1+0.01 {
			t.Errorf("MIN not convex between %d and %d lines: slopes %.4f then %.4f",
				caps[i-2], caps[i], s1, s2)
		}
	}
	// MIN must beat LRU's cliff behaviour on this cliffy app: at half the
	// cliff capacity, MIN hits a meaningful fraction while LRU gets ~0.
	cliffCap := 1 << 14 // ~half of omnetpp's ~32K-line cliff
	minMisses := policy.SimulateMIN(tr, cliffCap)
	if !(minMisses < len(tr)*95/100) {
		t.Errorf("MIN shows no hits at %d lines: %d/%d misses", cliffCap, minMisses, len(tr))
	}
}
