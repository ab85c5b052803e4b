package oracle

import (
	"fmt"

	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/monitor"
	"talus/internal/workload"
)

// Scenario is one validation workload: a named pattern builder plus the
// stream length its oracle and monitor runs use. Each run builds its
// own pattern, so runs never share position state.
type Scenario struct {
	Name     string
	Build    func() workload.Pattern
	Accesses int64
}

// Scenarios returns the validation suite for an LLC of llcLines: one
// scenario per generator family, footprints placed around the LLC so
// every curve has structure — a cliff, a ramp, or a convex knee —
// inside the monitor's [LLC/4, 4·LLC] coverage window. accesses sets
// each scenario's stream length (scaled so laps and phases fit).
func Scenarios(llcLines, accesses int64) []Scenario {
	l := llcLines
	type P = workload.Pattern
	return []Scenario{
		{"scan", func() P { return &workload.Scan{Lines: 3 * l / 2} }, accesses},
		{"rand", func() P { return &workload.Rand{Lines: 2 * l} }, accesses},
		{"zipf", func() P { return workload.NewZipf(4*l, 0.9) }, accesses},
		{"strided", func() P { return &workload.Strided{Lines: 4 * l, Stride: 4} }, accesses},
		{"pointerchase", func() P { return workload.NewPointerChase(l/2, 0xC11FF) }, accesses},
		{"diurnal", func() P { return must(workload.NewDiurnal(l, 0.9, accesses/16, l/8)) }, accesses},
		{"cliffseeker", func() P { return must(workload.NewCliffSeeker(l)) }, accesses},
		{"scanmix", func() P {
			return workload.MustMix(
				workload.Component{Pattern: &workload.Rand{Lines: l / 4}, Weight: 0.4},
				workload.Component{Pattern: &workload.Scan{Lines: l}, Weight: 0.6},
			)
		}, accesses},
	}
}

// must unwraps a generator constructor whose arguments Scenarios
// derives from the LLC size and stream length: an error there means
// the caller passed a degenerate size.
func must[T workload.Pattern](p T, err error) workload.Pattern {
	if err != nil {
		panic(err)
	}
	return p
}

// Comparison is one scenario's monitor-vs-oracle accuracy result.
type Comparison struct {
	Name     string
	Accesses int64
	LLC      int64
	// Rates are the monitor bank's sampling rates (sub, fine, coarse).
	Rates [3]float64
	// Distance is curve.Distance between the monitor's curve and the
	// oracle's, both in misses per kilo-access: a normalized L1 gap in
	// [0, 1] that integrates over the monitor's way-granularity smear at
	// cliffs instead of failing pointwise on it.
	Distance float64
	// MaxRatioErr is the worst absolute miss-ratio gap on the monitor's
	// own size grid, outside cliff bands: the monitor's documented
	// cliff-position jitter is ±25% of the cliff size (set-level Poisson
	// noise; see the monitor round-trip tests), so pointwise comparison
	// inside ±25% of an oracle cliff measures that jitter, not curve
	// accuracy — Distance integrates over it instead. The size-0 point
	// (extrapolated all-miss level) is also excluded: under Theorem-4
	// address sampling of a heavy-tailed pattern, its variance is set by
	// the few hottest addresses landing in or out of the sample.
	MaxRatioErr float64
}

// CompareMonitor feeds one identical access stream to the monitor bank
// that serves requests (a monitor.SlicedEpochMonitor closing one epoch)
// and an exact StackSim and reports how far the measured curve is
// from ground truth, along with both curves (monitor, oracle) in misses
// per kilo-access on the monitor's size grid.
func CompareMonitor(sc Scenario, llcLines int64, seed uint64) (Comparison, *curve.Curve, *curve.Curve, error) {
	cmp := Comparison{Name: sc.Name, Accesses: sc.Accesses, LLC: llcLines, Rates: monitor.Rates(llcLines)}
	mon, err := monitor.NewSlicedEpochMonitor(llcLines, 0, seed, 1)
	if err != nil {
		return cmp, nil, nil, err
	}
	sim := NewStackSim()
	p := sc.Build()
	rng := hash.NewSplitMix64(seed)
	for i := int64(0); i < sc.Accesses; i++ {
		a := p.Next(rng)
		mon.Observe(a)
		sim.Access(a)
	}
	kilo := float64(sc.Accesses) / 1000
	monCurve, err := mon.EpochCurve(float64(sc.Accesses))
	if err != nil {
		return cmp, nil, nil, fmt.Errorf("oracle: %s monitor curve: %w", sc.Name, err)
	}
	// Evaluate the oracle on the monitor's own grid: Distance integrates
	// over the union grid anyway, and a shared grid keeps MaxRatioErr a
	// pure value comparison.
	var sizes []int64
	for _, pt := range monCurve.Points() {
		if s := int64(pt.Size); s > 0 {
			sizes = append(sizes, s)
		}
	}
	oraCurve, err := sim.Curve(sizes, kilo)
	if err != nil {
		return cmp, nil, nil, fmt.Errorf("oracle: %s oracle curve: %w", sc.Name, err)
	}
	cmp.Distance = curve.Distance(monCurve, oraCurve)
	cmp.MaxRatioErr = maxRatioErr(monCurve, oraCurve)
	return cmp, monCurve, oraCurve, nil
}

// maxRatioErr is the worst |monitor − oracle| miss-ratio gap over the
// monitor grid, excluding the size-0 extrapolation point and ±25%
// bands around oracle cliffs (see Comparison.MaxRatioErr for why both
// exclusions are principled, not slack).
func maxRatioErr(mon, ora *curve.Curve) float64 {
	pts := ora.Points()
	// Cliff positions: grid steps where the exact curve drops by more
	// than 100 misses per kilo-access.
	var cliffs []float64
	for i := 1; i < len(pts); i++ {
		if pts[i-1].MPKI-pts[i].MPKI > 100 {
			cliffs = append(cliffs, pts[i].Size)
		}
	}
	worst := 0.0
	for i, p := range pts {
		if p.Size <= 0 {
			continue
		}
		// The local grid step is one way of the monitor array modeling
		// this size region: the band is position jitter (±25%) plus one
		// way of quantization.
		step := 0.0
		if i > 0 {
			step = p.Size - pts[i-1].Size
		}
		if i < len(pts)-1 && pts[i+1].Size-p.Size > step {
			step = pts[i+1].Size - p.Size
		}
		inBand := false
		for _, c := range cliffs {
			if p.Size >= 0.75*c-step && p.Size <= 1.25*c+step {
				inBand = true
				break
			}
		}
		if inBand {
			continue
		}
		if d := abs(mon.Eval(p.Size)-p.MPKI) / 1000; d > worst {
			worst = d
		}
	}
	return worst
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ErrorTable runs CompareMonitor for every scenario — the data behind
// EXPERIMENTS.md's monitor-vs-oracle table and the CI artifact.
func ErrorTable(llcLines, accesses int64, seed uint64) ([]Comparison, error) {
	var out []Comparison
	for _, sc := range Scenarios(llcLines, accesses) {
		cmp, _, _, err := CompareMonitor(sc, llcLines, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, cmp)
	}
	return out, nil
}

// Grid returns an evenly spaced size grid of n points covering
// (0, maxLines], the standard grid oracle tests and tools sample exact
// curves on.
func Grid(maxLines int64, n int) []int64 {
	if n < 1 {
		n = 1
	}
	out := make([]int64, 0, n)
	prev := int64(0)
	for i := 1; i <= n; i++ {
		s := maxLines * int64(i) / int64(n)
		if s > prev {
			out = append(out, s)
			prev = s
		}
	}
	return out
}
