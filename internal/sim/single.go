// Single-program LLC sweeps: measure one app's MPKI across cache sizes
// under a policy, with or without Talus — the machinery behind Figs. 1,
// 8, 9, 10 and 11.

package sim

import (
	"cmp"
	"fmt"

	"talus/internal/cache"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/monitor"
	"talus/internal/workload"
)

// SweepConfig parameterizes a single-program size sweep.
type SweepConfig struct {
	App        workload.Spec
	SizesLines []int64
	Scheme     string // "none", "way", "set", "vantage", "ideal"
	Policy     string // "LRU", "SRRIP", "DRRIP", "DIP", "PDP", "Random"
	Talus      bool
	// Margin is the Talus sampling-rate safety margin: 0 selects the
	// paper's DefaultMargin (5%); a negative value disables the margin
	// entirely (used by tests and the margin ablation).
	Margin float64

	// MonitorPoints sizes the profiling monitor for Talus runs on
	// policies without the stack property (SRRIP, …), which need one
	// sampled monitor per curve point (§VI-C): 0 selects the paper's 64.
	// LRU runs profile with the LRU-stack bank at 0; a positive count
	// forces the MultiMonitor there too.
	MonitorPoints int

	// CurveOverride, when set, skips profiling and hands Talus this miss
	// curve directly — the idealized "given the miss curve" setting of
	// the paper's Fig. 1, free of the 4× monitor-coverage limit that
	// hides cliffs far beyond the LLC (§VI-C).
	CurveOverride *curve.Curve

	WarmupAccesses  int64 // per point; 0 → 2× the size in lines
	MeasureAccesses int64 // per point; 0 → max(4× size, 1M)
	Seed            uint64

	// Parallelism bounds the worker pool RunSweep fans points across:
	// 0 uses GOMAXPROCS, 1 forces the sequential path. Every point runs
	// an independent simulation from a seed derived from Seed and the
	// point index, so the resulting curve is byte-identical at any
	// parallelism level.
	Parallelism int
}

func (c *SweepConfig) defaults() {
	if c.Scheme == "" {
		c.Scheme = "none"
		if c.Talus {
			c.Scheme = "vantage"
		}
	}
	c.Policy = cmp.Or(c.Policy, "LRU")
	if c.Margin == 0 {
		c.Margin = core.DefaultMargin
	}
	c.Margin = max(c.Margin, 0)
}

// accessCounts returns warmup and measure access counts for a sweep point.
func (c *SweepConfig) accessCounts(size int64) (warm, measure int64) {
	return cmp.Or(c.WarmupAccesses, max(2*size, 1<<18)), cmp.Or(c.MeasureAccesses, max(4*size, 1<<20))
}

// RunSweep measures the app's miss curve over the configured sizes and
// returns it as a Curve (sizes in lines, MPKI per the app's APKI).
// Points are fanned across a worker pool bounded by cfg.Parallelism;
// each point simulates independently under a seed derived from Seed and
// its index, and results land in per-index slots, so the curve is
// identical point-for-point to a sequential (Parallelism: 1) run.
func RunSweep(cfg SweepConfig) (*curve.Curve, error) {
	cfg.defaults()
	if len(cfg.SizesLines) == 0 {
		return nil, fmt.Errorf("sim: no sizes to sweep")
	}
	pts := make([]curve.Point, len(cfg.SizesLines))
	errs := make([]error, len(cfg.SizesLines))
	ParallelFor(len(cfg.SizesLines), Workers(cfg.Parallelism), func(i int) {
		size := cfg.SizesLines[i]
		mpki, err := RunPoint(cfg, size, cfg.Seed+uint64(i)*1_000_003)
		if err != nil {
			errs[i] = fmt.Errorf("sim: size %d: %w", size, err)
			return
		}
		pts[i] = curve.Point{Size: float64(size), MPKI: mpki}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return curve.New(pts)
}

// RunPoint measures the app's MPKI at one cache size.
func RunPoint(cfg SweepConfig, size int64, seed uint64) (float64, error) {
	cfg.defaults()
	if cfg.Talus {
		return runTalusPoint(cfg, size, seed)
	}
	return runPlainPoint(cfg, size, seed)
}

func runPlainPoint(cfg SweepConfig, size int64, seed uint64) (float64, error) {
	c, err := cache.Build(cfg.Scheme, size, DefaultAssoc, 1, cfg.Policy, 1, seed)
	if err != nil {
		return 0, err
	}
	return measurePoint(c, cfg, size, seed), nil
}

// measurePoint warms c with the app's stream, then returns its MPKI
// over the measured accesses — partition 0, the one a point simulates.
func measurePoint(c Accessor, cfg SweepConfig, size int64, seed uint64) float64 {
	app := workload.NewApp(cfg.App, seed^0xA99)
	warm, measure := cfg.accessCounts(size)
	for i := int64(0); i < warm; i++ {
		c.Access(app.Next(), 0)
	}
	var misses int64
	for i := int64(0); i < measure; i++ {
		if !c.Access(app.Next(), 0) {
			misses++
		}
	}
	return mpkiOf(misses, measure, cfg.App.APKI)
}

func runTalusPoint(cfg SweepConfig, size int64, seed uint64) (float64, error) {
	// Phase 1: profile the app's miss curve with the configured monitor
	// (or take the supplied oracle curve).
	mcurve := cfg.CurveOverride
	if mcurve == nil {
		var err error
		mcurve, err = ProfileCurve(cfg, size, seed)
		if err != nil {
			return 0, err
		}
	}

	// Phase 2: build the shadow-partitioned cache, configure it from the
	// curve, and measure.
	inner, err := cache.Build(cfg.Scheme, size, DefaultAssoc, 2, cfg.Policy, 1, seed^0x7A1)
	if err != nil {
		return 0, err
	}
	tc, err := core.NewShadowedCache(inner, 1, cfg.Margin, seed^0x5A3)
	if err != nil {
		return 0, err
	}
	budget := inner.PartitionableCapacity()
	if err := tc.Reconfigure([]int64{budget}, []*curve.Curve{mcurve}); err != nil {
		return 0, err
	}
	return measurePoint(tc, cfg, size, seed), nil
}

// ProfileCurve runs the app through the configured monitor alone and
// returns the measured miss curve — the pre-processing input (Fig. 7a).
func ProfileCurve(cfg SweepConfig, llcLines int64, seed uint64) (*curve.Curve, error) {
	cfg.defaults()
	_, profAccesses := cfg.accessCounts(llcLines)
	app := workload.NewApp(cfg.App, seed^0xF10F)
	kiloInstr := float64(profAccesses) / cfg.App.APKI

	points := cfg.MonitorPoints
	if points == 0 && !replacesLRU(cfg.Scheme, cfg.Policy) {
		points = defaultMonitorPoints
	}
	if points > 0 {
		factory, err := cache.PolicyByName(cfg.Policy, 1)
		if err != nil {
			return nil, err
		}
		mm, err := monitor.NewMultiMonitor(4*llcLines, points, 2048, 16,
			factory, seed^0x33F)
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < profAccesses; i++ {
			mm.Observe(app.Next())
		}
		return mm.Curve(kiloInstr)
	}

	// The bank that serves requests, closing one epoch (the first
	// epoch's curve is read before any decay).
	mon, err := monitor.NewSlicedEpochMonitor(llcLines, 0, seed^0x33F, 1)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < profAccesses; i++ {
		mon.Observe(app.Next())
	}
	return mon.EpochCurve(kiloInstr * 1000)
}

// mpkiOf converts a miss count over n accesses at the given APKI to MPKI.
func mpkiOf(misses, accesses int64, apki float64) float64 {
	if accesses == 0 {
		return 0
	}
	kiloInstr := float64(accesses) / apki
	return float64(misses) / kiloInstr
}
