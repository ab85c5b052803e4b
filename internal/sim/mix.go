// Multi-programmed CMP simulation: 8 cores sharing an LLC, with
// epoch-based monitoring, allocation, and (optionally) Talus shadow
// partitioning — the machinery behind Figs. 12 and 13.
//
// Each epoch simulates a fixed number of cycles. Every core issues LLC
// accesses at the rate its last epoch's CPI gives (APKI/1000 ÷ CPI
// accesses per cycle; the first epoch starts from CPIBase), finely
// interleaved, and is credited the instructions the epoch's cycles buy
// at the CPI its own misses produce. At epoch end, per-core UMONs yield
// miss curves, the partitioning algorithm computes new allocations (on
// convex hulls when Talus is enabled), and partition sizes are
// reprogrammed — the paper's 10 ms reconfiguration interval. Runs
// follow the fixed-work methodology (§VII-A): every app executes
// WorkInstr instructions; all apps keep running until the last
// finishes; metrics cover each app's first WorkInstr instructions only.

package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"talus/internal/adaptive"
	"talus/internal/alloc"
	"talus/internal/cache"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/monitor"
	"talus/internal/workload"
)

// Mode names a multi-program management scheme.
type Mode string

// The management schemes Figs. 12 and 13 compare.
const (
	ModeLRU            Mode = "lru"             // unpartitioned shared LRU (baseline)
	ModeTADRRIP        Mode = "tadrrip"         // unpartitioned thread-aware DRRIP
	ModeHillLRU        Mode = "hill-lru"        // partitioned LRU, hill climbing on raw curves
	ModeLookaheadLRU   Mode = "lookahead-lru"   // partitioned LRU, UCP Lookahead
	ModeFairLRU        Mode = "fair-lru"        // partitioned LRU, equal allocations
	ModeTalusHill      Mode = "talus-hill"      // Talus + hill climbing on hulls
	ModeTalusFair      Mode = "talus-fair"      // Talus + equal allocations
	ModeTalusLookahead Mode = "talus-lookahead" // Talus + Lookahead on hulls (ablation)
)

// MixConfig parameterizes a multi-programmed run.
type MixConfig struct {
	Apps          []workload.Spec
	CapacityLines int64
	Assoc         int  // 0 → DefaultAssoc
	Mode          Mode // management scheme
	Margin        float64

	EpochCycles int64 // simulated cycles per epoch; 0 → 2M
	WorkInstr   int64 // fixed work per app; 0 → 50M instructions
	MaxEpochs   int   // safety bound; 0 → 10000
	Seed        uint64
}

// MixResult reports per-app outcomes of one run.
type MixResult struct {
	Apps             []string
	IPC              []float64 // WorkInstr / completion cycles
	MPKI             []float64 // misses per kilo-instruction over the fixed work
	CompletionCycles []float64
	Epochs           int
}

func (c *MixConfig) defaults() error {
	if len(c.Apps) == 0 {
		return fmt.Errorf("sim: mix needs apps")
	}
	if c.CapacityLines <= 0 {
		return fmt.Errorf("sim: mix needs capacity")
	}
	c.Assoc = cmp.Or(c.Assoc, DefaultAssoc)
	c.Mode = cmp.Or(c.Mode, ModeLRU)
	c.Margin = margin(c.Margin)
	c.EpochCycles = cmp.Or(c.EpochCycles, 2<<20)
	c.WorkInstr = cmp.Or(c.WorkInstr, 50<<20)
	c.MaxEpochs = cmp.Or(c.MaxEpochs, 10000)
	return nil
}

// mode is one management scheme's recipe: the arrays RunMix builds and
// the epoch step it runs over them.
type mode struct {
	name   Mode
	scheme string // partitioning scheme of the arrays ("none": shared)
	policy string // the arrays' replacement policy
	talus  bool   // Talus shadow partitions over the arrays
	alloc  alloc.Allocator
	hull   bool // alloc sees convex hulls (Fair ignores the curves)
}

// modes is the management vocabulary. A mode with no allocator is
// never reconfigured.
var modes = []mode{
	{ModeLRU, "none", "LRU", false, nil, false},
	{ModeTADRRIP, "none", "TA-DRRIP", false, nil, false},
	{ModeHillLRU, "vantage", "LRU", false, alloc.HillClimbAllocator, false},
	{ModeLookaheadLRU, "vantage", "LRU", false, alloc.LookaheadAllocator, false},
	{ModeFairLRU, "vantage", "LRU", false, alloc.FairAllocator, false},
	{ModeTalusHill, "vantage", "LRU", true, alloc.HillClimbAllocator, true},
	{ModeTalusFair, "vantage", "LRU", true, alloc.FairAllocator, false},
	{ModeTalusLookahead, "vantage", "LRU", true, alloc.LookaheadAllocator, true},
}

// ValidModes enumerates every management scheme, for error messages and
// flag help that teach the caller the vocabulary.
var ValidModes = func() string {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = string(m.name)
	}
	return strings.Join(names, ", ")
}()

// mpkiObjective makes the epoch step's objective the sum of the apps'
// MPKI. Step's curves are misses per kilo-access of the whole mix, over
// EWMA'd counts. Weighting app i by the mix's accesses over app i's
// instructions, both decayed as the monitors decay their unit, turns its
// curve into exactly the MPKI curve a monitor counting app i's own
// instructions would read. Weights from the epoch's counts alone would
// lag the curves and damp a fast app's weight.
type mpkiObjective struct {
	apps  []workload.Spec
	acc   float64
	instr []float64
}

// weights accounts one epoch's accesses per app and returns the weights.
// An app with no instructions yet weighs 0.
func (o *mpkiObjective) weights(epochAcc []int64) []float64 {
	w := make([]float64, len(o.apps))
	for i, spec := range o.apps {
		o.acc += float64(epochAcc[i])
		o.instr[i] += float64(epochAcc[i]) * 1000 / spec.APKI
	}
	for i := range w {
		if o.instr[i] > 0 {
			w[i] = o.acc / o.instr[i]
		}
		o.instr[i] *= monitor.DefaultRetain
	}
	o.acc *= monitor.DefaultRetain
	return w
}

// RunMixes simulates many mixes concurrently on a worker pool bounded by
// parallelism (0 → GOMAXPROCS) and returns their results in input order.
// Each mix is an independent simulation seeded from its own config, so
// results are identical to running every mix through RunMix sequentially;
// the first error (by input order) aborts the return but not the other
// mixes already in flight.
func RunMixes(cfgs []MixConfig, parallelism int) ([]*MixResult, error) {
	results := make([]*MixResult, len(cfgs))
	errs := make([]error, len(cfgs))
	ParallelFor(len(cfgs), Workers(parallelism), func(i int) {
		results[i], errs[i] = RunMix(cfgs[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: mix %d: %w", i, err)
		}
	}
	return results, nil
}

// RunMix simulates one multi-programmed mix and returns per-app results.
func RunMix(cfg MixConfig) (*MixResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	mi := slices.IndexFunc(modes, func(m mode) bool { return m.name == cfg.Mode })
	if mi < 0 {
		return nil, fmt.Errorf("sim: unknown mode %q (valid: %s)", cfg.Mode, ValidModes)
	}
	m := modes[mi]
	n := len(cfg.Apps)
	parts := n
	if m.talus {
		parts = 2 * n
	}
	arrays, err := cache.Build(m.scheme, cfg.CapacityLines, cfg.Assoc, parts, m.policy, n, cfg.Seed)
	if err != nil {
		return nil, err
	}
	access, reconfigure := arrays.Access, func(allocs []int64, _ []*curve.Curve) error {
		return arrays.SetPartitionSizes(allocs)
	}
	if m.talus {
		talus, err := core.NewShadowedCache(arrays, n, cfg.Margin, cfg.Seed^0x7A105)
		if err != nil {
			return nil, err
		}
		access, reconfigure = talus.Access, talus.Reconfigure
	}
	var loop *adaptive.Loop
	if m.alloc != nil {
		if loop, err = adaptive.NewLoop(n, cfg.CapacityLines, cfg.Seed); err != nil {
			return nil, err
		}
	}

	apps := make([]*workload.App, n)
	for i, spec := range cfg.Apps {
		apps[i] = workload.NewApp(spec, cfg.Seed+uint64(i)*7919)
	}

	// Per-app progress state.
	cpi := make([]float64, n)        // current CPI estimate
	instrDone := make([]float64, n)  // completed instructions (counted to WorkInstr)
	missesWork := make([]float64, n) // misses within the fixed work window
	accWork := make([]float64, n)    // accesses within the fixed work window
	doneAt := make([]float64, n)     // completion time in cycles (-1 = running)
	credit := make([]float64, n)     // fractional access credit for interleaving
	for i := range cpi {
		cpi[i] = cfg.Apps[i].CPIBase // first epoch's issue rate; measured after
		doneAt[i] = -1
	}

	var cycles float64
	epoch := 0
	objective := mpkiObjective{apps: cfg.Apps, instr: make([]float64, n)}

	for ; epoch < cfg.MaxEpochs; epoch++ {
		// How many accesses each app issues this epoch.
		epochAcc := make([]int64, n)
		for i, spec := range cfg.Apps {
			credit[i] += spec.APKI / 1000 / cpi[i] * float64(cfg.EpochCycles)
			epochAcc[i] = int64(credit[i])
			credit[i] -= float64(epochAcc[i])
		}

		// Interleave in fine rounds so cores contend realistically.
		const rounds = 512
		epochMisses := make([]int64, n)
		for r := 0; r < rounds; r++ {
			for i := range apps {
				quota := epochAcc[i] / rounds
				if r < int(epochAcc[i]%rounds) {
					quota++
				}
				for k := int64(0); k < quota; k++ {
					addr := apps[i].Next() | adaptive.AppSpace(i)
					if loop != nil {
						loop.Observe(addr, i)
					}
					if !access(addr, i) {
						epochMisses[i]++
					}
				}
			}
		}

		// Account CPI, instructions, misses, and completion. The epoch's
		// accesses were issued at the previous epoch's CPI, but its time
		// runs at the CPI this epoch's misses produce: the epoch credits
		// EpochCycles / CPI instructions.
		for i, spec := range cfg.Apps {
			if epochAcc[i] == 0 {
				continue
			}
			mpki := mpkiOf(epochMisses[i], epochAcc[i], spec.APKI)
			cpi[i] = CPI(spec, mpki)
			if doneAt[i] < 0 {
				// Attribute this epoch's work to the fixed-work window,
				// possibly completing it mid-epoch.
				instr := float64(cfg.EpochCycles) / cpi[i]
				prev := instrDone[i]
				instrDone[i] += instr
				frac := 1.0
				if instrDone[i] >= float64(cfg.WorkInstr) {
					frac = (float64(cfg.WorkInstr) - prev) / instr
					doneAt[i] = cycles + frac*float64(cfg.EpochCycles)
				}
				missesWork[i] += frac * float64(epochMisses[i])
				accWork[i] += frac * float64(epochAcc[i])
			}
		}
		cycles += float64(cfg.EpochCycles)

		if !slices.Contains(doneAt, -1) {
			epoch++
			break
		}

		// Reconfigure for the next epoch through the serving loop's step.
		// The monitors decay rather than reset, so curves integrate
		// history with a one-epoch half-life.
		if loop == nil {
			continue
		}
		var weights []float64
		if m.alloc.Name() != "fair" { // Fair reads weights as shares
			weights = objective.weights(epochAcc)
		}
		allocs, curves, ok, err := loop.Step(m.alloc, m.hull, alloc.Request{
			Total: arrays.PartitionableCapacity(), Weights: weights,
		})
		if err == nil && ok {
			err = reconfigure(allocs, curves)
		}
		if err != nil {
			return nil, err
		}
	}

	res := &MixResult{
		Apps:             make([]string, n),
		IPC:              make([]float64, n),
		MPKI:             make([]float64, n),
		CompletionCycles: make([]float64, n),
		Epochs:           epoch,
	}
	for i, spec := range cfg.Apps {
		res.Apps[i] = spec.Name
		t := doneAt[i]
		if t < 0 {
			t = cycles // did not finish within MaxEpochs: report progress so far
		}
		res.CompletionCycles[i] = t
		if t > 0 {
			res.IPC[i] = math.Min(float64(cfg.WorkInstr), instrDone[i]) / t
		}
		if accWork[i] > 0 {
			res.MPKI[i] = missesWork[i] / accWork[i] * spec.APKI
		}
	}
	return res, nil
}
