// Multi-programmed experiments: Fig. 12 (random mixes, speedup quantiles)
// and Fig. 13 (fairness case studies with homogeneous copies).

package experiments

import (
	"fmt"

	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/sim"
	"talus/internal/stats"
	"talus/internal/workload"
)

// mixScale returns (mix count, per-app fixed work, epoch cycles) by scale.
func mixScale(cfg Config) (int, int64, int64) {
	switch cfg.Scale {
	case ScaleShort:
		return 2, 3 << 20, 1 << 19
	case ScaleTiny:
		return 4, 6 << 20, 1 << 19
	case ScaleQuick:
		return 12, 12 << 20, 1 << 19
	case ScaleFull:
		return 100, 100 << 20, 2 << 20
	default:
		return 30, 30 << 20, 1 << 20
	}
}

// randomMixes draws n 8-app mixes from the memory-intensive pool, as in
// §VII-A ("random mixes of the 18 most memory intensive SPECCPU2006
// apps").
func randomMixes(n int, seed uint64) [][]workload.Spec {
	pool := workload.MemoryIntensive()
	rng := hash.NewSplitMix64(seed)
	mixes := make([][]workload.Spec, n)
	for i := range mixes {
		apps := make([]workload.Spec, sim.CoresMP)
		for j := range apps {
			name := pool[rng.Intn(len(pool))]
			spec, _ := workload.Lookup(name)
			apps[j] = spec
		}
		mixes[i] = apps
	}
	return mixes
}

// runFig12 regenerates Fig. 12: weighted and harmonic speedups over
// unpartitioned LRU for random 8-app mixes under Talus+V/LRU (hill),
// Lookahead/LRU, TA-DRRIP, and Hill/LRU, reported as sorted quantiles.
func runFig12(cfg Config) error {
	nMixes, work, epoch := mixScale(cfg)
	mixes := randomMixes(nMixes, cfg.Seed+51)
	capacity := int64(curve.MBToLines(sim.CoresMP * sim.LLCPerCoreMB))

	modes := []struct {
		label string
		mode  sim.Mode
	}{
		{"Talus+V/LRU(Hill)", sim.ModeTalusHill},
		{"Lookahead", sim.ModeLookaheadLRU},
		{"TA-DRRIP", sim.ModeTADRRIP},
		{"Hill/LRU", sim.ModeHillLRU},
	}

	ws := make(map[string][]float64)
	hs := make(map[string][]float64)
	for _, m := range modes {
		ws[m.label] = make([]float64, nMixes)
		hs[m.label] = make([]float64, nMixes)
	}
	errs := make([]error, nMixes)
	cfg.parallelFor(nMixes, func(mi int) {
		apps := mixes[mi]
		runCfg := func(mode sim.Mode) (*sim.MixResult, error) {
			return sim.RunMix(sim.MixConfig{
				Apps: apps, CapacityLines: capacity, Assoc: sim.DefaultAssoc,
				Mode: mode, EpochCycles: epoch, WorkInstr: work,
				Seed: cfg.Seed + 53 + uint64(mi)*997,
			})
		}
		base, err := runCfg(sim.ModeLRU)
		if err != nil {
			errs[mi] = err
			return
		}
		for _, m := range modes {
			res, err := runCfg(m.mode)
			if err != nil {
				errs[mi] = fmt.Errorf("mix %d mode %s: %w", mi, m.label, err)
				return
			}
			ws[m.label][mi] = stats.WeightedSpeedup(res.IPC, base.IPC)
			hs[m.label][mi] = stats.HarmonicSpeedup(res.IPC, base.IPC)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	for _, metric := range []struct {
		name string
		data map[string][]float64
	}{{"weighted", ws}, {"harmonic", hs}} {
		headers := []string{"quantile"}
		for _, m := range modes {
			headers = append(headers, m.label)
		}
		t := newTable(cfg, headers...)
		sorted := make(map[string][]float64)
		for _, m := range modes {
			sorted[m.label] = stats.Quantiles(metric.data[m.label])
		}
		for i := 0; i < nMixes; i++ {
			row := []any{fmt.Sprintf("%d/%d", i+1, nMixes)}
			for _, m := range modes {
				row = append(row, sorted[m.label][i])
			}
			t.row(row...)
		}
		grow := []any{"gmean"}
		for _, m := range modes {
			grow = append(grow, stats.GeoMean(metric.data[m.label]))
		}
		t.row(grow...)
		fmt.Fprintf(cfg.out(), "--- %s speedup over LRU (%d mixes) ---\n", metric.name, nMixes)
		if err := t.flush(cfg, "fig12_"+metric.name); err != nil {
			return err
		}
	}
	return nil
}

// runFig13 regenerates the fairness case studies: 8 copies of
// libquantum, omnetpp, and xalancbmk across LLC sizes, under fair Talus,
// fair LRU, Lookahead/LRU, and TA-DRRIP. Reported per size: execution
// time vs unpartitioned LRU at the smallest size (lower is better) and
// the CoV of per-core IPC (unfairness; lower is better).
func runFig13(cfg Config) error {
	_, work, epoch := mixScale(cfg)
	apps13 := []string{"libquantum", "omnetpp", "xalancbmk"}
	sizesByApp := map[string][]float64{
		// Cliffs at 32/2/6 MB per copy; sweep past 8 copies' worth.
		"libquantum": sweepSizes(cfg, 8, 72, 4, 6, 9),
		"omnetpp":    sweepSizes(cfg, 2, 24, 4, 6, 9),
		"xalancbmk":  sweepSizes(cfg, 4, 56, 4, 6, 9),
	}
	modes := []struct {
		label string
		mode  sim.Mode
	}{
		{"Talus+V/LRU(Fair)", sim.ModeTalusFair},
		{"Lookahead", sim.ModeLookaheadLRU},
		{"TA-DRRIP", sim.ModeTADRRIP},
		{"Fair/LRU", sim.ModeFairLRU},
		{"LRU", sim.ModeLRU},
	}
	// The fixed work must cover several reuse laps of the app's scan or
	// no scheme can produce hits; laps differ by orders of magnitude
	// across the three apps (libquantum's lap alone is ~16M
	// instructions). The Short smoke drops the floor entirely — its
	// numbers are execution smoke, not results — because this floor, not
	// mixScale, is what used to make BenchmarkFig13Fairness dominate the
	// CI bench run (~3.5 min).
	lapInstr := map[string]int64{
		"libquantum": 16 << 20,
		"omnetpp":    3 << 20,
		"xalancbmk":  6 << 20,
	}
	laps := int64(6)
	if cfg.Scale == ScaleShort {
		laps = 0
	}

	for _, appName := range apps13 {
		spec, err := mustSpec(appName)
		if err != nil {
			return err
		}
		apps := make([]workload.Spec, sim.CoresMP)
		for i := range apps {
			apps[i] = spec
		}
		sizes := sizesByApp[appName]
		appWork := work
		if floor := laps * lapInstr[appName]; appWork < floor {
			appWork = floor
		}

		headers := []string{"size(MB)"}
		for _, m := range modes {
			headers = append(headers, m.label+"_time", m.label+"_CoV")
		}
		t := newTable(cfg, headers...)

		// Reference: unpartitioned LRU at the smallest size (the paper
		// normalizes execution time to LRU at 1 MB). Then every
		// (size, mode) run is independent: fan out over all of them.
		type cell struct {
			time float64
			cov  float64
		}
		cells := make([][]cell, len(sizes))
		for i := range cells {
			cells[i] = make([]cell, len(modes))
		}
		var refTime float64
		errs := make([]error, len(sizes)*len(modes)+1)
		cfg.parallelFor(len(sizes)*len(modes)+1, func(k int) {
			if k == len(sizes)*len(modes) {
				ref, err := sim.RunMix(sim.MixConfig{
					Apps: apps, CapacityLines: int64(curve.MBToLines(sizes[0])),
					Assoc: sim.DefaultAssoc, Mode: sim.ModeLRU,
					EpochCycles: epoch, WorkInstr: appWork,
					Seed: cfg.Seed + 61,
				})
				if err != nil {
					errs[k] = err
					return
				}
				for _, c := range ref.CompletionCycles {
					if c > refTime {
						refTime = c
					}
				}
				return
			}
			si, mi := k/len(modes), k%len(modes)
			res, err := sim.RunMix(sim.MixConfig{
				Apps: apps, CapacityLines: int64(curve.MBToLines(sizes[si])),
				Assoc: sim.DefaultAssoc, Mode: modes[mi].mode,
				EpochCycles: epoch, WorkInstr: appWork,
				Seed: cfg.Seed + 61 + uint64(si)*131,
			})
			if err != nil {
				errs[k] = fmt.Errorf("%s %gMB %s: %w", appName, sizes[si], modes[mi].label, err)
				return
			}
			var last float64
			for _, c := range res.CompletionCycles {
				if c > last {
					last = c
				}
			}
			cells[si][mi] = cell{time: last, cov: stats.CoV(res.IPC)}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for si, sizeMB := range sizes {
			row := []any{sizeMB}
			for mi := range modes {
				row = append(row, cells[si][mi].time/refTime, cells[si][mi].cov)
			}
			t.row(row...)
		}
		fmt.Fprintf(cfg.out(), "--- %s ×%d copies ---\n", appName, sim.CoresMP)
		if err := t.flush(cfg, "fig13_"+appName); err != nil {
			return err
		}
	}
	return nil
}
