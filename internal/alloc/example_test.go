package alloc_test

import (
	"fmt"

	"talus/internal/alloc"
	"talus/internal/core"
	"talus/internal/curve"
)

// ExampleWeightedHillClimb shows why convexity matters: on hulls,
// trivial hill climbing matches the exact DP optimum.
func ExampleWeightedHillClimb() {
	cliff := curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 20}, {Size: 490, MPKI: 20}, {Size: 500, MPKI: 1}, {Size: 800, MPKI: 1},
	})
	convex := curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 10}, {Size: 200, MPKI: 4}, {Size: 800, MPKI: 2},
	})
	raw := []*curve.Curve{cliff, convex}

	// On the raw curves, hill climbing sees zero marginal gain anywhere
	// on the cliff app's plateau and starves it; on the hulls it walks
	// straight to the cliff's foot.
	onRaw, _ := alloc.WeightedHillClimb(alloc.NewRequest(raw, 800, 10))
	onHulls, _ := alloc.WeightedHillClimb(alloc.NewRequest(core.Convexify(raw), 800, 10))
	fmt.Println("hill on raw curves: ", onRaw)
	fmt.Println("hill on Talus hulls:", onHulls)
	// Output:
	// hill on raw curves:  [0 800]
	// hill on Talus hulls: [500 300]
}
