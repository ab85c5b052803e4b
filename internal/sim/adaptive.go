// Adaptive-runtime experiments: the serving-side counterpart of RunMix.
// Where RunMix simulates CPU epochs in cycles and reconfigures between
// them, RunAdaptive drives the online control loop (internal/adaptive,
// built by adaptive.Build) purely from the access stream — the
// configuration a production cache service would run, and the harness
// behind the adaptive-vs-oracle convergence experiment in EXPERIMENTS.md.

package sim

import (
	"cmp"
	"fmt"

	"talus/internal/adaptive"
	"talus/internal/curve"
	"talus/internal/workload"
)

// AdaptiveConfig parameterizes RunAdaptive.
type AdaptiveConfig struct {
	Apps          []workload.Spec
	CapacityLines int64
	Assoc         int    // 0 → DefaultAssoc
	Scheme        string // "" → "vantage"
	Shards        int    // 0 → 1 (deterministic sequential feed)

	EpochAccesses int64 // control-loop interval; 0 → adaptive default
	// Margin is the Talus safety margin: 0 selects the paper's
	// DefaultMargin (5%); negative disables it.
	Margin float64
	// Weights gives each app's partition an objective weight (see
	// alloc.Request.Weights); nil means uniform. Length must match Apps.
	Weights []float64

	AccessesPerApp int64 // traffic per app; 0 → 4M
	// TailFrac is the fraction of each app's trailing accesses measured
	// for steady-state miss rates (the head is the convergence window);
	// 0 → 0.5.
	TailFrac float64

	Seed uint64
}

func (c *AdaptiveConfig) defaults() error {
	if len(c.Apps) == 0 {
		return fmt.Errorf("sim: adaptive run needs apps")
	}
	if c.CapacityLines <= 0 {
		return fmt.Errorf("sim: adaptive run needs capacity")
	}
	c.Assoc = cmp.Or(c.Assoc, DefaultAssoc)
	c.Scheme = cmp.Or(c.Scheme, "vantage")
	c.Shards = max(c.Shards, 1)
	c.Margin = margin(c.Margin)
	if c.AccessesPerApp <= 0 {
		c.AccessesPerApp = 4 << 20
	}
	if c.TailFrac <= 0 || c.TailFrac > 1 {
		c.TailFrac = 0.5
	}
	if c.Weights != nil && len(c.Weights) != len(c.Apps) {
		return fmt.Errorf("sim: %d weights for %d apps", len(c.Weights), len(c.Apps))
	}
	return nil
}

// buildCache builds a defaulted config's adaptive cache, one partition
// per app — the one AdaptiveConfig → adaptive.Config translation the
// live and the trace-driven runs both use.
func (c *AdaptiveConfig) buildCache() (*adaptive.Cache, error) {
	return adaptive.Build(c.Scheme, c.CapacityLines, c.Assoc, c.Shards, len(c.Apps),
		c.Margin, adaptive.Config{
			EpochAccesses: c.EpochAccesses,
			Seed:          c.Seed,
			Weights:       c.Weights,
		})
}

// AdaptiveResult reports an adaptive run's steady-state outcomes.
type AdaptiveResult struct {
	Apps      []string
	MPKI      []float64 // per app over its measurement tail (APKI-scaled)
	MissRatio []float64 // misses/accesses over the tail
	Allocs    []int64   // final per-partition allocation in lines
	Curves    []*curve.Curve
	Epochs    int
}

// adaptiveResult assembles the per-partition report from a fed cache and
// the measured tail counts.
func adaptiveResult(ac *adaptive.Cache, specs []workload.Spec, misses, accs []int64) *AdaptiveResult {
	n := len(specs)
	res := &AdaptiveResult{
		Apps:      make([]string, n),
		MPKI:      make([]float64, n),
		MissRatio: make([]float64, n),
		Allocs:    ac.Allocations(),
		Curves:    make([]*curve.Curve, n),
		Epochs:    ac.Epochs(),
	}
	for p, spec := range specs {
		res.Apps[p] = spec.Name
		res.Curves[p] = ac.Curve(p)
		if accs[p] > 0 {
			res.MissRatio[p] = float64(misses[p]) / float64(accs[p])
			res.MPKI[p] = mpkiOf(misses[p], accs[p], spec.APKI)
		}
	}
	return res
}

// RunAdaptive drives one adaptive run: each app's stream is fed to its
// own logical partition in interleaved runs, the control loop adapts as
// it goes, and miss rates are measured over each app's trailing TailFrac
// of accesses (after the loop has had the head to converge).
func RunAdaptive(cfg AdaptiveConfig) (*AdaptiveResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	ac, err := cfg.buildCache()
	if err != nil {
		return nil, err
	}
	apps := make([]*workload.App, len(cfg.Apps))
	for i, spec := range cfg.Apps {
		apps[i] = workload.NewApp(spec, cfg.Seed+uint64(i)*7919)
	}
	misses, accs := FeedAdaptive(ac, apps, cfg.AccessesPerApp, cfg.TailFrac)
	return adaptiveResult(ac, cfg.Apps, misses, accs), nil
}

// Accessor is the slice of cache functionality the traffic feeders need;
// adaptive.Cache and core.ShadowedCache both provide it.
type Accessor interface {
	Access(addr uint64, p int) bool
}

// feedRunLen is the live feeders' traffic shape: apps take turns, each
// contributing this many consecutive accesses per turn.
const feedRunLen = 2048

// roundRobin walks the live feeders' traffic shape: apps take turns,
// each contributing up to feedRunLen consecutive accesses per turn,
// until every app has made perApp. visit gets the app and how many
// accesses it made before this one.
func roundRobin(apps int, perApp int64, visit func(app int, fed int64)) {
	fed := make([]int64, apps)
	for done := false; !done; {
		done = true
		for i := range fed {
			k := min(feedRunLen, perApp-fed[i])
			if k <= 0 {
				continue
			}
			done = false
			for j := int64(0); j < k; j++ {
				visit(i, fed[i]+j)
			}
			fed[i] += k
		}
	}
}

// FeedAdaptive interleaves accessesPerApp accesses from each app into
// its partition of ac, round-robin in runs of feedRunLen, and returns
// per-app miss and access counts over each app's trailing tailFrac of
// the stream. Also used by tests to drive phase-by-phase traffic at a
// cache that persists across calls — adaptive, or a statically
// configured ShadowedCache serving as the oracle baseline.
func FeedAdaptive(ac Accessor, apps []*workload.App, accessesPerApp int64, tailFrac float64) (misses, accs []int64) {
	misses = make([]int64, len(apps))
	accs = make([]int64, len(apps))
	tailStart := accessesPerApp - int64(tailFrac*float64(accessesPerApp))
	roundRobin(len(apps), accessesPerApp, func(i int, fed int64) {
		hit := ac.Access(apps[i].Next()|adaptive.AppSpace(i), i)
		if fed >= tailStart {
			accs[i]++
			if !hit {
				misses[i]++
			}
		}
	})
	return misses, accs
}
