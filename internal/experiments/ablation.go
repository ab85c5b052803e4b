// Ablations of the design choices DESIGN.md calls out:
//
//   - the 5% sampling-rate safety margin (§VI-B "we have empirically
//     determined an increase of 5% ensures convexity with little loss in
//     performance") — sweep the margin and watch both failure modes;
//   - extended monitor coverage (§VI-C) — without the 4× monitor, cliffs
//     beyond the LLC are invisible and Talus degenerates to LRU;
//   - partitioning-scheme granularity — Vantage (line-grained, 90%
//     managed) vs Futility-style (line-grained, 100%) vs way partitioning
//     (coarse) on the same cliff.
//
// These run on a mid-plateau operating point of the libquantum clone,
// where every design choice is load-bearing.

package experiments

import (
	"fmt"

	"talus/internal/curve"
	"talus/internal/sim"
	"talus/internal/workload"
)

func init() {
	registry = append(registry,
		experiment{"ablation-margin", "sampling-rate safety margin sweep (§VI-B's 5%)", runAblationMargin},
		experiment{"ablation-coverage", "extended monitor coverage on/off (§VI-C)", runAblationCoverage},
		experiment{"ablation-scheme", "partitioning scheme granularity under Talus", runAblationScheme},
	)
}

// runAblationMargin sweeps the safety margin. Margin 0 risks "pushing β
// up the performance cliff" when sampling noise makes the β partition
// slightly too small for what it emulates; very large margins overshoot
// α/β and give back some of the interpolation gain.
func runAblationMargin(cfg Config) error {
	spec, err := workload.Resolve("libquantum")
	if err != nil {
		return err
	}
	size := int64(curve.MBToLines(24))
	warm, meas := accessBudget(cfg, int64(curve.MBToLines(40)))

	t := newTable(cfg, "margin", "Talus MPKI", "vs LRU MPKI")
	base := sim.SweepConfig{App: spec, WarmupAccesses: warm, MeasureAccesses: meas, Seed: cfg.Seed}
	lru, err := sim.RunPoint(base, size, cfg.Seed+1)
	if err != nil {
		return err
	}
	for _, margin := range []float64{-1 /* none */, 0.025, 0.05, 0.10, 0.20} {
		sc := base
		sc.Talus = true
		sc.Scheme = "vantage"
		sc.Margin = margin
		label := fmt.Sprintf("%.3f", margin)
		if margin < 0 {
			label = "0 (disabled)"
		}
		mpki, err := sim.RunPoint(sc, size, cfg.Seed+2)
		if err != nil {
			return err
		}
		t.row(label, mpki, lru)
	}
	return t.flush(cfg, "ablation_margin")
}

// runAblationCoverage compares Talus with the paper's extended-coverage
// monitor against a hypothetical implementation whose curve is truncated
// at the LLC size — demonstrating why §VI-C adds the second monitor for
// "benchmarks with cliffs beyond the LLC size (e.g., libquantum)".
func runAblationCoverage(cfg Config) error {
	spec, err := workload.Resolve("libquantum")
	if err != nil {
		return err
	}
	size := int64(curve.MBToLines(16)) // cliff at 32 MB: 2× beyond the LLC
	warm, meas := accessBudget(cfg, int64(curve.MBToLines(40)))
	base := sim.SweepConfig{App: spec, WarmupAccesses: warm, MeasureAccesses: meas, Seed: cfg.Seed}

	lru, err := sim.RunPoint(base, size, cfg.Seed+1)
	if err != nil {
		return err
	}

	// Full monitor pair (coverage 4×): the cliff at 32 MB is visible.
	full := base
	full.Talus = true
	full.Scheme = "vantage"
	withCoverage, err := sim.RunPoint(full, size, cfg.Seed+2)
	if err != nil {
		return err
	}

	// Truncated curve: profile, then cut every point beyond the LLC.
	prof, err := sim.ProfileCurve(base, size, cfg.Seed+3)
	if err != nil {
		return err
	}
	var truncated []curve.Point
	for _, p := range prof.Points() {
		if p.Size <= float64(size) {
			truncated = append(truncated, p)
		}
	}
	tc, err := curve.New(truncated)
	if err != nil {
		return err
	}
	trunc := full
	trunc.CurveOverride = tc
	withoutCoverage, err := sim.RunPoint(trunc, size, cfg.Seed+4)
	if err != nil {
		return err
	}

	t := newTable(cfg, "configuration", "MPKI @16MB (cliff at 32MB)")
	t.row("LRU", lru)
	t.row("Talus, curve truncated at LLC", withoutCoverage)
	t.row("Talus, 4x extended coverage", withCoverage)
	return t.flush(cfg, "ablation_coverage")
}

// runAblationScheme compares the partitioning substrates under identical
// Talus configurations: idealized (no associativity effects), Futility
// (fine-grained, 100% partitionable), Vantage (fine-grained, 90%), and
// way partitioning (coarse granules, recomputed ρ).
func runAblationScheme(cfg Config) error {
	spec, err := workload.Resolve("libquantum")
	if err != nil {
		return err
	}
	size := int64(curve.MBToLines(24))
	warm, meas := accessBudget(cfg, int64(curve.MBToLines(40)))
	base := sim.SweepConfig{App: spec, WarmupAccesses: warm, MeasureAccesses: meas, Seed: cfg.Seed}
	lru, err := sim.RunPoint(base, size, cfg.Seed+1)
	if err != nil {
		return err
	}
	t := newTable(cfg, "scheme", "Talus MPKI", "LRU MPKI", "partitionable fraction")
	for _, scheme := range []string{"ideal", "futility", "vantage", "way"} {
		sc := base
		sc.Talus = true
		sc.Scheme = scheme
		mpki, err := sim.RunPoint(sc, size, cfg.Seed+2)
		if err != nil {
			return err
		}
		frac := 1.0
		if scheme == "vantage" {
			frac = 0.9
		}
		t.row(scheme, mpki, lru, frac)
	}
	return t.flush(cfg, "ablation_scheme")
}
