// control: weighted tenants on the live control loop.
//
// Two identical tenants contend for a store whose cache fits neither
// working set. The run starts uniform — neither tenant is preferred
// and both hit alike — then the gold tenant's objective weight is
// raised to 4× at run time (the same adjustment an operator makes with
// PUT /v1/control/tenants/gold), so the allocator minimizes
// 4·misses(gold) + misses(bronze) and capacity flows to gold. Each
// report prints the loop's state as GET /v1/control serves it: epochs
// run, the measured curve churn (a reported signal — nothing acts on
// it), and the epoch budget, which stays what it was configured to be.
//
// Run with:
//
//	go run ./examples/control
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"talus"
)

func main() {
	st, err := talus.NewStore(
		talus.WithCapacityMB(0.5),
		talus.WithShards(2),
		talus.WithStaticTenants("gold", "bronze"),
		talus.WithAdaptive(talus.AdaptiveConfig{EpochAccesses: 1 << 15, Seed: 11}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// Each tenant cycles through a key set ~1.5× its fair share of the
	// cache, so whoever holds more capacity hits more.
	const keys = 9000
	rng := rand.New(rand.NewPCG(1, 2))
	drive := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for _, tenant := range []string{"gold", "bronze"} {
				k := fmt.Sprintf("k%05d", rng.IntN(keys))
				if _, _, err := st.Get(tenant, k); err == talus.ErrNotFound {
					if _, err := st.Set(tenant, k, []byte("v")); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
	}
	report := func(label string) {
		cs := st.Control()
		fmt.Printf("\n%s\n", label)
		fmt.Printf("  control loop: %d epochs, churn %.3f, epoch budget %d accesses\n",
			cs.Epochs, cs.Churn, cs.EpochAccesses)
		for _, tc := range cs.Tenants {
			var ts talus.TenantStats
			for _, s := range st.StatsAll() {
				if s.Tenant == tc.Tenant {
					ts = s
				}
			}
			fmt.Printf("  %-6s weight %.0f  %6d lines  hit ratio %.3f\n",
				tc.Tenant, tc.Weight, tc.AllocLines, ts.HitRatio)
		}
	}

	drive(200_000)
	report("uniform weights — both tenants hit alike:")

	// The operator decision: gold's misses now count 4×.
	if err := st.SetTenantWeight("gold", 4); err != nil {
		log.Fatal(err)
	}
	drive(200_000)
	report("gold weighted 4× — capacity follows the objective:")

	fmt.Println("\nThe same adjustment over HTTP (talus-serve -control):")
	fmt.Println("  curl -X PUT -d '{\"weight\": 4}' localhost:8080/v1/control/tenants/gold")
	fmt.Println("  curl localhost:8080/v1/control")
}
