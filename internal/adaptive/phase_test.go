package adaptive_test

import (
	"testing"

	"talus/internal/adaptive"
	"talus/internal/sim"
	"talus/internal/workload"
)

// TestAdaptiveTracksPhaseChange drives the one control loop through a
// tenant that flips between a 6 144-line cyclic scan and a 2 048-line
// random working set, beside a steady 4 096-line random tenant, on 8 192
// lines at a fixed 2^16-access epoch (EXPERIMENTS.md, "A control loop
// with one speed": the 16 M-access runs read 0.826 / 0.894; this
// shorter window reads 0.825 / 0.899). The loop must keep up with the
// phases — a hit-ratio floor a few points under the measured value —
// and must actually move capacity: the phased partition holds more
// lines at the end of a scan stage than at the end of a rand stage.
func TestAdaptiveTracksPhaseChange(t *testing.T) {
	const (
		lines = 8192
		skip  = 2_000_000 // convergence window left out of the hit ratio
	)
	for _, tc := range []struct {
		phase int64 // stage length in the phased tenant's own accesses
		total int64 // accesses, both tenants, strictly alternating; past skip it holds whole scan+rand periods
		floor float64
	}{
		{200_000, 3_600_000, 0.79},
		{1_000_000, 6_000_000, 0.86},
	} {
		phased, err := workload.NewPhased(
			workload.Stage{Pattern: &workload.Scan{Lines: 6144}, Length: tc.phase},
			workload.Stage{Pattern: &workload.Rand{Lines: 2048}, Length: tc.phase},
		)
		if err != nil {
			t.Fatal(err)
		}
		cfg := adaptive.Config{EpochAccesses: 1 << 16, Seed: 1}
		ac, err := sim.BuildAdaptiveCache("vantage", lines, 0, 2, 2, "LRU", 0.05, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var apps [2]*workload.App
		for i, p := range []workload.Pattern{phased, &workload.Rand{Lines: 4096}} {
			apps[i] = workload.NewApp(workload.Spec{Name: "t", APKI: 1, Build: p.Clone}, cfg.Seed+uint64(i)*7919)
		}
		var hits, n int64
		var stageEnd [2][]int64 // phased partition's allocation as each stage ends
		for k := int64(0); k < tc.total; k++ {
			p := int(k & 1)
			hit := ac.Access(apps[p].Next()|sim.AppSpace(p), p)
			if k >= skip {
				n++
				if hit {
					hits++
				}
				// Phased draws its first stage (index 1, rand) at own
				// access 0, so own access j ends a stage when (j+1) is a
				// multiple of the phase length.
				if own := k/2 + 1; p == 0 && own%tc.phase == 0 {
					stage := int(own / tc.phase % 2) // 1 = a rand stage just ended
					stageEnd[stage] = append(stageEnd[stage], ac.Allocations()[0])
				}
			}
		}
		if err := ac.Err(); err != nil {
			t.Fatalf("phase %d: control loop error: %v", tc.phase, err)
		}
		ratio := float64(hits) / float64(n)
		t.Logf("phase %d: hit ratio %.4f over %d epochs; allocation after scan stages %v, after rand stages %v",
			tc.phase, ratio, ac.Epochs(), stageEnd[0], stageEnd[1])
		if ratio < tc.floor {
			t.Errorf("phase %d: hit ratio %.4f, want ≥ %.2f", tc.phase, ratio, tc.floor)
		}
		if len(stageEnd[0]) == 0 || len(stageEnd[1]) == 0 {
			t.Fatalf("phase %d: a stage never ended inside the measured window", tc.phase)
		}
		for i := 0; i < min(len(stageEnd[0]), len(stageEnd[1])); i++ {
			if stageEnd[0][i] <= stageEnd[1][i] {
				t.Errorf("phase %d: phased partition held %d lines after scan stage %d, %d after the rand stage",
					tc.phase, stageEnd[0][i], i, stageEnd[1][i])
			}
		}
	}
}
