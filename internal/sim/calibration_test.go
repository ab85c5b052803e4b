package sim

import (
	"testing"

	"talus/internal/curve"
	"talus/internal/hull"
	"talus/internal/monitor"
	"talus/internal/workload"
)

// TestCloneCliffCalibration profiles each cliff clone with the monitor bank
// and checks the measured LRU cliff sits near the position the registry
// promises (workload.CliffApps). This pins the scanLinesFor interleave
// compensation: if mixture weights drift, cliffs move and this fails.
func TestCloneCliffCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling all cliff apps is slow")
	}
	for name, cliff := range workload.CliffApps() {
		name, cliff := name, cliff
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, ok := workload.Lookup(name)
			if !ok {
				t.Fatalf("%s missing", name)
			}
			// Monitor sized at the cliff: coverage spans [cliff/4, 4×cliff].
			mon, err := monitor.NewSlicedEpochMonitor(cliff, 0, 17, 1)
			if err != nil {
				t.Fatal(err)
			}
			app := workload.NewApp(spec, 23)
			// Several reuse laps of the scan: the lap is at most
			// cliff-lines accesses divided by the scan's weight; 8×
			// cliff accesses is a safe overestimate.
			accesses := 8 * cliff
			if accesses < 1<<21 {
				accesses = 1 << 21
			}
			for i := int64(0); i < accesses; i++ {
				mon.Observe(app.Next())
			}
			c, err := mon.EpochCurve(float64(accesses) / spec.APKI * 1000)
			if err != nil {
				t.Fatal(err)
			}
			// The hull's knee (the β anchor bracketing 60% of the cliff)
			// approximates the measured cliff position.
			h := hull.Lower(c)
			_, beta, okN := hull.Neighbors(h, float64(cliff)*0.6)
			if !okN {
				t.Fatalf("no interpolable region below the cliff; curve: %v", c)
			}
			lo, hi := float64(cliff)*0.45, float64(cliff)*1.8
			if beta.Size < lo || beta.Size > hi {
				t.Errorf("measured cliff at %.2f MB, spec says %.2f MB (accept [%.2f, %.2f])",
					curve.LinesToMB(beta.Size), curve.LinesToMB(float64(cliff)),
					curve.LinesToMB(lo), curve.LinesToMB(hi))
			}
			// And the drop across the cliff must be substantial: the
			// curve beyond must be well below the plateau.
			plateau := c.Eval(float64(cliff) * 0.5)
			after := c.Eval(float64(cliff) * 2)
			if !(after < plateau*0.85) {
				t.Errorf("cliff too shallow: plateau %.2f vs after %.2f MPKI", plateau, after)
			}
		})
	}
}
