package sim

import (
	"testing"

	"talus/internal/workload"
)

// TestWeightedTenantE2E is the QoS acceptance run: two identical tenants
// contending for a cache that fits neither, re-run with a 4× objective
// weight on tenant 0. The weighted tenant's measured miss ratio must
// clearly improve, and the other tenant's loss must be bounded by the
// winner's gain (plus noise) — weighting shifts capacity, it does not
// burn it.
func TestWeightedTenantE2E(t *testing.T) {
	contender := func(name string) workload.Spec {
		return workload.Spec{
			Name: name, APKI: 20, CPIBase: 0.5, MLP: 2,
			Build: func() workload.Pattern { return &workload.Rand{Lines: 6144} },
		}
	}
	base := AdaptiveConfig{
		Apps:           []workload.Spec{contender("gold"), contender("bronze")},
		CapacityLines:  e2eCapacity,
		Assoc:          e2eAssoc,
		EpochAccesses:  1 << 17,
		AccessesPerApp: 2 << 20,
		TailFrac:       e2eTail,
		Seed:           61,
	}
	uniform, err := RunAdaptive(base)
	if err != nil {
		t.Fatal(err)
	}
	weighted4 := base
	weighted4.Weights = []float64{4, 1}
	weighted, err := RunAdaptive(weighted4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("uniform:  miss %.3f/%.3f allocs %v", uniform.MissRatio[0], uniform.MissRatio[1], uniform.Allocs)
	t.Logf("weighted: miss %.3f/%.3f allocs %v", weighted.MissRatio[0], weighted.MissRatio[1], weighted.Allocs)

	if weighted.Allocs[0] <= weighted.Allocs[1] {
		t.Fatalf("4×-weighted tenant got %d lines vs %d", weighted.Allocs[0], weighted.Allocs[1])
	}
	gain := uniform.MissRatio[0] - weighted.MissRatio[0]
	if gain < 0.08 {
		t.Fatalf("weighted tenant's miss ratio improved only %.3f (%.3f → %.3f)",
			gain, uniform.MissRatio[0], weighted.MissRatio[0])
	}
	cost := weighted.MissRatio[1] - uniform.MissRatio[1]
	if cost > gain+0.05 {
		t.Fatalf("unweighted tenant paid %.3f for the weighted tenant's %.3f gain", cost, gain)
	}
}
