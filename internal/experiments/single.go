// Single-program sweep experiments: Figs. 1, 8, 9, 10 and the IPC
// summaries of Fig. 11 / Table 2.

package experiments

import (
	"fmt"

	"talus/internal/curve"
	"talus/internal/sim"
	"talus/internal/stats"
	"talus/internal/workload"
)

// sweepOne measures one app under one configuration across sizes.
func sweepOne(cfg Config, app workload.Spec, sizesMB []float64, scheme, policy string, talus bool, monitorPoints int, seed uint64) (*curve.Curve, error) {
	return sweepOneCurve(cfg, app, sizesMB, scheme, policy, talus, monitorPoints, nil, seed)
}

// sweepOneCurve is sweepOne with an optional oracle miss curve handed to
// Talus at every size (Fig. 1's idealized setting). Access budgets scale
// with the sweep's largest size, not the point size: a measurement window
// shorter than the app's reuse period (e.g., one lap of libquantum's
// 32 MB scan) would under-report hits at every size.
func sweepOneCurve(cfg Config, app workload.Spec, sizesMB []float64, scheme, policy string, talus bool, monitorPoints int, oracle *curve.Curve, seed uint64) (*curve.Curve, error) {
	sizes := mbSizes(sizesMB)
	warm, meas := accessBudget(cfg, sizes[len(sizes)-1])
	return sim.RunSweep(sim.SweepConfig{
		App:             app,
		SizesLines:      sizes,
		Scheme:          scheme,
		Policy:          policy,
		Talus:           talus,
		MonitorPoints:   monitorPoints,
		CurveOverride:   oracle,
		WarmupAccesses:  warm,
		MeasureAccesses: meas,
		Seed:            seed,
		Parallelism:     cfg.Parallelism,
	})
}

// runFig1 regenerates Fig. 1: libquantum's miss curve under LRU (a 32 MB
// cliff) and under Talus+V/LRU (the cliff's hull). As in the paper's
// intro figure, Talus is given the app's full miss curve (profiled once
// across the whole sweep range); Fig. 8 repeats the experiment with the
// honest per-LLC-size monitors.
func runFig1(cfg Config) error {
	spec, err := workload.Resolve("libquantum")
	if err != nil {
		return err
	}
	sizesMB := sweepSizes(cfg, 2, 40, 8, 14, 20)
	lru, err := sweepOne(cfg, spec, sizesMB, "none", "LRU", false, 0, cfg.Seed+1)
	if err != nil {
		return err
	}
	// Profile once at the largest size (coverage 4× beyond it).
	maxLines := int64(curve.MBToLines(sizesMB[len(sizesMB)-1]))
	warm, meas := accessBudget(cfg, maxLines)
	oracle, err := sim.ProfileCurve(sim.SweepConfig{
		App: spec, WarmupAccesses: warm, MeasureAccesses: meas, Seed: cfg.Seed + 3,
	}, maxLines, cfg.Seed+4)
	if err != nil {
		return err
	}
	talus, err := sweepOneCurve(cfg, spec, sizesMB, "vantage", "LRU", true, 0, oracle, cfg.Seed+2)
	if err != nil {
		return err
	}
	t := newTable(cfg, "size(MB)", "LRU(MPKI)", "Talus(MPKI)")
	for i, s := range sizesMB {
		t.row(s, lru.PointAt(i).MPKI, talus.PointAt(i).MPKI)
	}
	return t.flush(cfg, "fig1")
}

// column is one curve of a single-program sweep figure: a cache
// configuration and the offset from Config.Seed its sweep runs under.
type column struct {
	label, scheme, policy string
	talus                 bool
	seed                  uint64
}

// sweepTable sweeps app under each column across sizesMB (points
// monitors per size for Talus columns; 0 = default) and prints and
// writes one table, name_app: the size, then one MPKI column each.
func sweepTable(cfg Config, name, app string, sizesMB []float64, points int, cols []column) error {
	spec, err := workload.Resolve(app)
	if err != nil {
		return err
	}
	headers := []string{"size(MB)"}
	curves := make([]*curve.Curve, len(cols))
	for i, c := range cols {
		curves[i], err = sweepOne(cfg, spec, sizesMB, c.scheme, c.policy, c.talus, points, cfg.Seed+c.seed)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", app, c.label, err)
		}
		headers = append(headers, c.label)
	}
	t := newTable(cfg, headers...)
	for i, s := range sizesMB {
		row := []any{s}
		for _, c := range curves {
			row = append(row, c.PointAt(i).MPKI)
		}
		t.row(row...)
	}
	fmt.Fprintf(cfg.out(), "--- %s ---\n", app)
	return t.flush(cfg, name+"_"+app)
}

// runFig8 regenerates Fig. 8: Talus on LRU under Vantage, way, and ideal
// partitioning, on libquantum and gobmk. All three must trace LRU's hull.
func runFig8(cfg Config) error {
	cols := []column{
		{"LRU", "none", "LRU", false, 11},
		{"Talus+V/LRU", "vantage", "LRU", true, 12},
		{"Talus+W/LRU", "way", "LRU", true, 13},
		{"Talus+I/LRU", "ideal", "LRU", true, 14},
	}
	if err := sweepTable(cfg, "fig8", "libquantum", sweepSizes(cfg, 2, 40, 6, 10, 16), 0, cols); err != nil {
		return err
	}
	return sweepTable(cfg, "fig8", "gobmk", sweepSizes(cfg, 0.5, 8, 6, 10, 16), 0, cols)
}

// runFig9 regenerates Fig. 9: SRRIP vs Talus+W/SRRIP using the
// (impractical in hardware, fine in software) multi-point monitors,
// demonstrating that Talus is agnostic to replacement policy.
func runFig9(cfg Config) error {
	points := 64
	switch {
	case cfg.Scale <= ScaleTiny:
		points = 8
	case cfg.Scale == ScaleQuick:
		points = 16
	}
	cols := []column{
		{"SRRIP", "none", "SRRIP", false, 21},
		{"Talus+W/SRRIP", "way", "SRRIP", true, 22},
	}
	if err := sweepTable(cfg, "fig9", "libquantum", sweepSizes(cfg, 2, 40, 5, 8, 14), points, cols); err != nil {
		return err
	}
	return sweepTable(cfg, "fig9", "mcf", sweepSizes(cfg, 1, 16, 5, 8, 14), points, cols)
}

// fig10Apps are the six representative benchmarks of Fig. 10.
var fig10Apps = []string{"perlbench", "mcf", "cactusADM", "libquantum", "lbm", "xalancbmk"}

// fig10Columns are Fig. 10's policies; the first four are also the
// IPC comparisons of Fig. 11 and Table 2, against the fifth.
var fig10Columns = []column{
	{"Talus+V/LRU", "vantage", "LRU", true, 31},
	{"PDP", "none", "PDP", false, 32},
	{"DRRIP", "none", "DRRIP", false, 33},
	{"SRRIP", "none", "SRRIP", false, 34},
	{"LRU", "none", "LRU", false, 35},
}

// runFig10 regenerates Fig. 10: MPKI from 128 KB to 16 MB for six apps
// under Talus+V/LRU and the high-performance policies.
func runFig10(cfg Config) error {
	sizesMB := sweepSizes(cfg, 0.125, 16, 5, 9, 13)
	for _, app := range fig10Apps {
		if err := sweepTable(cfg, "fig10", app, sizesMB, 0, fig10Columns); err != nil {
			return err
		}
	}
	return nil
}

// ipcApps is the app list Fig. 11 and Table 2 average over: the Fig. 10
// apps at tiny scale, the memory-intensive pool at quick scale, and
// every clone otherwise.
func ipcApps(cfg Config) []string {
	switch {
	case cfg.Scale <= ScaleTiny:
		return fig10Apps
	case cfg.Scale == ScaleQuick:
		return workload.MemoryIntensive()
	}
	return workload.Names()
}

// ipcComparisonAt measures IPC-over-LRU for every app at one LLC size,
// returning per-app percentages per policy plus gmeans.
func ipcComparisonAt(cfg Config, sizeMB float64, apps []string, seed uint64) (map[string][]float64, []string, error) {
	policies := fig10Columns[:4]
	size := int64(curve.MBToLines(sizeMB))
	// Budget by the largest clone footprint (libquantum's 32 MB scan),
	// not the LLC size, so every app completes several reuse periods.
	warm, meas := accessBudget(cfg, int64(curve.MBToLines(32)))
	results := make(map[string][]float64) // label → per-app IPC ratio
	var labels []string
	for _, p := range policies {
		labels = append(labels, p.label)
		results[p.label] = make([]float64, len(apps))
	}
	errs := make([]error, len(apps))
	cfg.parallelFor(len(apps), func(ai int) {
		spec, err := workload.Resolve(apps[ai])
		if err != nil {
			errs[ai] = err
			return
		}
		base := sim.SweepConfig{App: spec, Scheme: "none", Policy: "LRU",
			WarmupAccesses: warm, MeasureAccesses: meas, Seed: seed}
		lruMPKI, err := sim.RunPoint(base, size, seed+uint64(ai))
		if err != nil {
			errs[ai] = err
			return
		}
		lruIPC := sim.IPC(spec, lruMPKI)
		for _, p := range policies {
			sc := sim.SweepConfig{App: spec, Scheme: p.scheme, Policy: p.policy, Talus: p.talus,
				WarmupAccesses: warm, MeasureAccesses: meas, Seed: seed}
			mpki, err := sim.RunPoint(sc, size, seed+uint64(ai)*31+7)
			if err != nil {
				errs[ai] = err
				return
			}
			results[p.label][ai] = sim.IPC(spec, mpki) / lruIPC
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return results, labels, nil
}

// runFig11 regenerates Fig. 11: per-app IPC over LRU at 1 MB and 8 MB
// (apps changed ≥1% shown in the paper; we print all), plus gmeans.
func runFig11(cfg Config) error {
	apps := ipcApps(cfg)
	for _, sizeMB := range []float64{1, 8} {
		results, labels, err := ipcComparisonAt(cfg, sizeMB, apps, cfg.Seed+41)
		if err != nil {
			return err
		}
		headers := append([]string{"app"}, labels...)
		t := newTable(cfg, headers...)
		for ai, app := range apps {
			row := []any{app}
			for _, l := range labels {
				row = append(row, (results[l][ai]-1)*100)
			}
			t.row(row...)
		}
		grow := []any{"gmean(%)"}
		for _, l := range labels {
			grow = append(grow, (stats.GeoMean(results[l])-1)*100)
		}
		t.row(grow...)
		fmt.Fprintf(cfg.out(), "--- IPC over LRU (%%) at %gMB LLC ---\n", sizeMB)
		if err := t.flush(cfg, fmt.Sprintf("fig11_%gMB", sizeMB)); err != nil {
			return err
		}
	}
	return nil
}

// runTable2 prints just the gmean rows of Fig. 11 — the §VII-C quoted
// numbers (paper: 1MB: Talus 1.9/PDP 2.4/SRRIP 2.2/DRRIP 3.8;
// 8MB: 1.0/0.69/-0.03/0.39).
func runTable2(cfg Config) error {
	apps := ipcApps(cfg)
	t := newTable(cfg, "LLC", "Talus+V/LRU(%)", "PDP(%)", "DRRIP(%)", "SRRIP(%)")
	for _, sizeMB := range []float64{1, 8} {
		results, _, err := ipcComparisonAt(cfg, sizeMB, apps, cfg.Seed+47)
		if err != nil {
			return err
		}
		t.row(fmt.Sprintf("%gMB", sizeMB),
			(stats.GeoMean(results["Talus+V/LRU"])-1)*100,
			(stats.GeoMean(results["PDP"])-1)*100,
			(stats.GeoMean(results["DRRIP"])-1)*100,
			(stats.GeoMean(results["SRRIP"])-1)*100)
	}
	return t.flush(cfg, "table2")
}
