package sim

import (
	"testing"

	"talus/internal/workload"
)

// TestMixAdaptsToPhaseChange stresses Assumption 1's machinery: a
// workload alternating between two working-set phases. The decaying
// monitors must track the phase transitions well enough that Talus-hill
// still beats the unpartitioned baseline and never collapses.
func TestMixAdaptsToPhaseChange(t *testing.T) {
	phased := workload.Spec{
		Name: "phased", APKI: 20, CPIBase: 0.5, MLP: 2,
		Build: func() workload.Pattern {
			return &workload.Phased{Stages: []workload.Stage{
				{Pattern: &workload.Scan{Lines: 8192}, Length: 400000},
				{Pattern: &workload.Rand{Lines: 2048}, Length: 400000},
			}}
		},
	}
	steady := workload.Spec{
		Name: "steady", APKI: 12, CPIBase: 0.5, MLP: 2,
		Build: func() workload.Pattern { return &workload.Rand{Lines: 4096} },
	}
	apps := []workload.Spec{phased, steady, phased, steady}

	run := func(mode Mode) *MixResult {
		t.Helper()
		res, err := RunMix(MixConfig{
			Apps:          apps,
			CapacityLines: 16384,
			Mode:          mode,
			EpochCycles:   1 << 18,
			WorkInstr:     16 << 20,
			Seed:          99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(ModeLRU)
	talus := run(ModeTalusHill)
	for i := range apps {
		if talus.IPC[i] <= 0 {
			t.Fatalf("app %d IPC collapsed under phase changes", i)
		}
	}
	// Talus must not lose to the baseline despite the non-stationarity.
	var wsum float64
	for i := range apps {
		wsum += talus.IPC[i] / base.IPC[i]
	}
	if ws := wsum / float64(len(apps)); ws < 0.95 {
		t.Fatalf("weighted speedup %g under phase changes; Talus collapsed", ws)
	}
}
