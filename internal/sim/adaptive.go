// Adaptive-runtime experiments: the serving-side counterpart of RunMix.
// Where RunMix simulates CPU epochs in cycles and runs the loop's epoch
// step (adaptive.Loop) between them, RunAdaptive drives the whole online
// control loop (internal/adaptive, built by adaptive.Build) purely from
// the access stream — the
// configuration a production cache service would run, and the harness
// behind the adaptive-vs-oracle convergence experiment in EXPERIMENTS.md.

package sim

import (
	"cmp"
	"fmt"
	"iter"

	"talus/internal/adaptive"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/trace"
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
// per app, and sets each app's weight: the one AdaptiveConfig →
// adaptive.Cache translation.
func (c *AdaptiveConfig) buildCache() (*adaptive.Cache, error) {
	ac, err := adaptive.Build(c.Scheme, c.CapacityLines, c.Assoc, c.Shards, len(c.Apps),
		core.DefaultMargin, adaptive.Config{EpochAccesses: c.EpochAccesses, Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	for p, w := range c.Weights {
		if err := ac.SetWeight(p, w); err != nil {
			return nil, err
		}
	}
	return ac, nil
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

// RunAdaptive drives one adaptive run: each app's stream is fed to its
// own logical partition in interleaved runs, the control loop adapts as
// it goes, and miss rates are measured over each app's trailing TailFrac
// of accesses (after the loop has had the head to converge).
func RunAdaptive(cfg AdaptiveConfig) (*AdaptiveResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	apps := make([]*workload.App, len(cfg.Apps))
	totals := make([]int64, len(cfg.Apps))
	for i, spec := range cfg.Apps {
		apps[i] = workload.NewApp(spec, cfg.Seed+uint64(i)*7919)
		totals[i] = cfg.AccessesPerApp
	}
	return run(cfg, live(apps, cfg.AccessesPerApp), totals)
}

// run is the body RunAdaptive and RunAdaptiveTraceFile share: build a
// defaulted config's cache, feed it recs — totals[p] records for
// partition p — and report each partition over its trailing TailFrac.
func run(cfg AdaptiveConfig, recs iter.Seq2[trace.Record, error], totals []int64) (*AdaptiveResult, error) {
	ac, err := cfg.buildCache()
	if err != nil {
		return nil, err
	}
	misses, accs, err := feed(ac, recs, tailStarts(totals, cfg.TailFrac))
	if err != nil {
		return nil, err
	}
	n := len(cfg.Apps)
	res := &AdaptiveResult{
		Apps:      make([]string, n),
		MPKI:      make([]float64, n),
		MissRatio: make([]float64, n),
		Allocs:    ac.Allocations(),
		Curves:    make([]*curve.Curve, n),
		Epochs:    ac.Epochs(),
	}
	for p, spec := range cfg.Apps {
		res.Apps[p] = spec.Name
		res.Curves[p] = ac.Curve(p)
		if accs[p] > 0 {
			res.MissRatio[p] = float64(misses[p]) / float64(accs[p])
			res.MPKI[p] = mpkiOf(misses[p], accs[p], spec.APKI)
		}
	}
	return res, nil
}

// Accessor is the slice of cache functionality the feed loop needs;
// adaptive.Cache and core.ShadowedCache both provide it.
type Accessor interface {
	Access(addr uint64, p int) bool
}

// feedRunLen is the live stream's traffic shape: apps take turns, each
// contributing this many consecutive accesses per turn.
const feedRunLen = 2048

// live is the one definition of the live stream: apps take turns, each
// making up to feedRunLen consecutive accesses per turn, until every
// app has made perApp. Record P is the app's index and Addr is in the
// app's private space; feed applies the AppSpace offset. RecordSpecs
// writes this sequence and RunAdaptive feeds it, so a recording replays
// exactly as the live run. It never yields an error.
func live(apps []*workload.App, perApp int64) iter.Seq2[trace.Record, error] {
	return func(yield func(trace.Record, error) bool) {
		fed := make([]int64, len(apps))
		for done := false; !done; {
			done = true
			for i, app := range apps {
				k := min(feedRunLen, perApp-fed[i])
				if k <= 0 {
					continue
				}
				done = false
				for range k {
					if !yield(trace.Record{P: i, Addr: app.Next()}, nil) {
						return
					}
				}
				fed[i] += k
			}
		}
	}
}

// feed is the one replay loop, for live and recorded streams alike: one
// Access per record, in record order, at the record's address offset
// into its partition's AppSpace. It returns per-partition miss and
// access counts from record tailStart[p] of partition p on, and stops
// at the stream's first error. Memory use is constant in the stream's
// length.
func feed(ac Accessor, recs iter.Seq2[trace.Record, error], tailStart []int64) (misses, accs []int64, err error) {
	misses = make([]int64, len(tailStart))
	accs = make([]int64, len(tailStart))
	fed := make([]int64, len(tailStart))
	for rec, err := range recs {
		if err != nil {
			return nil, nil, err
		}
		hit := ac.Access(rec.Addr|adaptive.AppSpace(rec.P), rec.P)
		if fed[rec.P] >= tailStart[rec.P] {
			accs[rec.P]++
			if !hit {
				misses[rec.P]++
			}
		}
		fed[rec.P]++
	}
	return misses, accs, nil
}

// tailStarts converts per-partition record totals and a tail fraction
// into the record index within each partition where steady-state
// measurement begins.
func tailStarts(totals []int64, frac float64) []int64 {
	out := make([]int64, len(totals))
	for p, total := range totals {
		out[p] = total - int64(frac*float64(total))
	}
	return out
}
