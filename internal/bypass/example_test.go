package bypass_test

import (
	"fmt"

	"talus/internal/bypass"
	"talus/internal/core"
	"talus/internal/curve"
)

// ExampleOptimal reproduces Fig. 5: bypassing helps on the cliff but
// cannot match the hull (Corollary 8).
func ExampleOptimal() {
	mb := curve.MBToLines
	m := curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 24},
		{Size: mb(2), MPKI: 12},
		{Size: mb(4.999), MPKI: 12},
		{Size: mb(5), MPKI: 3},
		{Size: mb(10), MPKI: 3},
	})
	bc, _ := bypass.Optimal(m, mb(4))
	fmt.Printf("admit %.0f%% of accesses, cache acts as %gMB\n",
		bc.Rho*100, curve.LinesToMB(bc.Emulated))
	fmt.Printf("bypassing: %.1f MPKI, Talus: %.1f MPKI\n",
		bc.MPKI, core.InterpolatedMPKI(m, mb(4)))
	// Output:
	// admit 80% of accesses, cache acts as 5MB
	// bypassing: 7.2 MPKI, Talus: 6.0 MPKI
}
