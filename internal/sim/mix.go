// Multi-programmed CMP simulation: 8 cores sharing an LLC, with
// epoch-based monitoring, allocation, and (optionally) Talus shadow
// partitioning — the machinery behind Figs. 12 and 13.
//
// Each core keeps a clock in cycles and charges every LLC access its own
// cost: 1000/APKI · CPIBase cycles for the instructions between
// accesses, plus MemLatency/MLP if it misses — the analytic core model
// (CPI), one access at a time. Each epoch is a fixed number of cycles cut
// into fine time slices; in each slice every core issues accesses until
// its clock passes the slice's end, so cores contend at the rates their
// own misses allow. At epoch end, per-core UMONs yield miss curves, the
// partitioning algorithm computes new allocations (on convex hulls when
// Talus is enabled), and partition sizes are reprogrammed — the paper's
// 10 ms reconfiguration interval. Runs follow the fixed-work methodology
// (§VII-A): every app executes WorkInstr instructions; all apps keep
// running until the last finishes; metrics cover each app's first
// WorkInstr instructions only.

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
	Mode          Mode // management scheme

	EpochCycles int64 // simulated cycles per epoch; 0 → 2M
	WorkInstr   int64 // fixed work per app; 0 → 50M instructions
	Seed        uint64
}

// MixResult reports per-app outcomes of one run.
type MixResult struct {
	Apps             []string
	IPC              []float64 // fixed work's instructions / completion cycles
	MPKI             []float64 // misses per kilo-instruction over the fixed work
	CompletionCycles []float64 // clock reading at the fixed work's last access
	Epochs           int
}

func (c *MixConfig) defaults() error {
	if len(c.Apps) == 0 {
		return fmt.Errorf("sim: mix needs apps")
	}
	if c.CapacityLines <= 0 {
		return fmt.Errorf("sim: mix needs capacity")
	}
	for _, spec := range c.Apps {
		for _, v := range []float64{spec.APKI, spec.CPIBase, spec.MLP} {
			if !(v > 0 && !math.IsInf(v, 1)) {
				return fmt.Errorf("sim: app %q: APKI %g, CPIBase %g, MLP %g; a core's clock needs all three finite and positive",
					spec.Name, spec.APKI, spec.CPIBase, spec.MLP)
			}
		}
	}
	c.Mode = cmp.Or(c.Mode, ModeLRU)
	c.EpochCycles = cmp.Or(c.EpochCycles, 2<<20)
	c.WorkInstr = cmp.Or(c.WorkInstr, 50<<20)
	return nil
}

// mode is one management scheme's recipe: the arrays RunMix builds and
// the epoch step it runs over them.
type mode struct {
	name   Mode
	scheme string          // partitioning scheme of the arrays ("none": shared)
	policy string          // the arrays' replacement policy
	talus  bool            // Talus shadow partitions over the arrays
	alloc  alloc.Allocator // under Talus it sees convex hulls
}

// modes is the management vocabulary. A mode with no allocator is
// never reconfigured.
var modes = []mode{
	{ModeLRU, "none", "LRU", false, nil},
	{ModeTADRRIP, "none", "TA-DRRIP", false, nil},
	{ModeHillLRU, "vantage", "LRU", false, alloc.HillClimbAllocator},
	{ModeLookaheadLRU, "vantage", "LRU", false, alloc.LookaheadAllocator},
	{ModeFairLRU, "vantage", "LRU", false, alloc.FairAllocator},
	{ModeTalusHill, "vantage", "LRU", true, alloc.HillClimbAllocator},
	{ModeTalusFair, "vantage", "LRU", true, alloc.FairAllocator},
	{ModeTalusLookahead, "vantage", "LRU", true, alloc.LookaheadAllocator},
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
	arrays, err := cache.Build(m.scheme, cfg.CapacityLines, DefaultAssoc, parts, m.policy, n, cfg.Seed)
	if err != nil {
		return nil, err
	}
	access, reconfigure := arrays.Access, func(allocs []int64, _ []*curve.Curve) error {
		return arrays.SetPartitionSizes(allocs)
	}
	if m.talus {
		talus, err := core.NewShadowedCache(arrays, n, core.DefaultMargin, cfg.Seed^0x7A105)
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

	// Each core's clock, its per-access and per-miss cycles, and its
	// fixed work: WorkInstr rounded to whole accesses, at least one.
	apps := make([]*workload.App, n)
	clock := make([]float64, n)
	cost, penalty := make([]float64, n), make([]float64, n)
	work := make([]int64, n)
	issued, misses := make([]int64, n), make([]int64, n)
	missesWork := make([]int64, n) // misses within the fixed work
	doneAt := make([]float64, n)   // clock at the fixed work's last access; 0 = running
	for i, spec := range cfg.Apps {
		apps[i] = workload.NewApp(spec, cfg.Seed+uint64(i)*7919)
		cost[i] = 1000 / spec.APKI * spec.CPIBase
		penalty[i] = MemLatency / spec.MLP
		work[i] = max(1, int64(math.Round(float64(cfg.WorkInstr)*spec.APKI/1000)))
	}

	epoch := 0
	objective := mpkiObjective{apps: cfg.Apps, instr: make([]float64, n)}
	for ; slices.Contains(doneAt, 0); epoch++ {
		// Interleave in fine time slices so cores contend realistically.
		const nSlices = 512
		start := append([]int64(nil), issued...)
		for r := 1; r <= nSlices; r++ {
			end := float64(cfg.EpochCycles) * (float64(epoch) + float64(r)/nSlices)
			for i := range apps {
				for clock[i] < end {
					addr := apps[i].Next() | adaptive.AppSpace(i)
					if loop != nil {
						loop.Observe(addr, i)
					}
					clock[i] += cost[i]
					if !access(addr, i) {
						clock[i] += penalty[i]
						misses[i]++
					}
					if issued[i]++; issued[i] == work[i] {
						doneAt[i], missesWork[i] = clock[i], misses[i]
					}
				}
			}
		}
		epochAcc := make([]int64, n) // the epoch's per-core issue counts
		for i := range epochAcc {
			epochAcc[i] = issued[i] - start[i]
		}

		// Reconfigure for the next epoch through the serving loop's step.
		// The monitors decay rather than reset, so curves integrate
		// history with a one-epoch half-life.
		if loop == nil || !slices.Contains(doneAt, 0) {
			continue
		}
		allocs, curves, ok, err := loop.Step(m.alloc, m.talus, alloc.Request{
			Total: arrays.PartitionableCapacity(), Weights: objective.weights(epochAcc),
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
		CompletionCycles: doneAt,
		Epochs:           epoch,
	}
	for i, spec := range cfg.Apps {
		res.Apps[i] = spec.Name
		res.IPC[i] = float64(work[i]) * 1000 / spec.APKI / doneAt[i]
		res.MPKI[i] = mpkiOf(missesWork[i], work[i], spec.APKI)
	}
	return res, nil
}
