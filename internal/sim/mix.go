// Multi-programmed CMP simulation: 8 cores sharing an LLC, with
// epoch-based monitoring, allocation, and (optionally) Talus shadow
// partitioning — the machinery behind Figs. 12 and 13.
//
// Each epoch simulates a fixed number of cycles. Every core issues LLC
// accesses at its current rate (APKI/1000 ÷ CPI accesses per cycle),
// finely interleaved. At epoch end, per-core UMONs yield miss curves, the
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

// mixCache abstracts the two datapaths (plain partitioned cache vs Talus
// shadowed cache) behind one access/reconfigure interface. Unmanaged
// modes run a plainMix that is never reconfigured.
type mixCache interface {
	Access(addr uint64, app int) bool
	Reconfigure(allocs []int64, curves []*curve.Curve) error
	Budget() int64 // partitionable capacity to allocate
}

type plainMix struct {
	c core.PartitionedCache
}

func (p *plainMix) Access(addr uint64, app int) bool { return p.c.Access(addr, app) }
func (p *plainMix) Budget() int64                    { return p.c.PartitionableCapacity() }
func (p *plainMix) Reconfigure(allocs []int64, _ []*curve.Curve) error {
	return p.c.SetPartitionSizes(allocs)
}

type talusMix struct {
	t *core.ShadowedCache
}

func (t *talusMix) Access(addr uint64, app int) bool { return t.t.Access(addr, app) }
func (t *talusMix) Budget() int64                    { return t.t.Inner().PartitionableCapacity() }
func (t *talusMix) Reconfigure(allocs []int64, curves []*curve.Curve) error {
	return t.t.Reconfigure(allocs, curves)
}

// buildMixCache constructs the datapath for a mode.
func buildMixCache(cfg *MixConfig) (mixCache, bool, error) {
	n := len(cfg.Apps)
	switch cfg.Mode {
	case ModeLRU:
		c, err := cache.Build("none", cfg.CapacityLines, cfg.Assoc, n, "LRU", n, cfg.Seed)
		return &plainMix{c}, false, err
	case ModeTADRRIP:
		c, err := cache.Build("none", cfg.CapacityLines, cfg.Assoc, n, "TA-DRRIP", n, cfg.Seed)
		return &plainMix{c}, false, err
	case ModeHillLRU, ModeLookaheadLRU, ModeFairLRU:
		c, err := cache.Build("vantage", cfg.CapacityLines, cfg.Assoc, n, "LRU", n, cfg.Seed)
		return &plainMix{c}, true, err
	case ModeTalusHill, ModeTalusFair, ModeTalusLookahead:
		inner, err := cache.Build("vantage", cfg.CapacityLines, cfg.Assoc, 2*n, "LRU", n, cfg.Seed)
		if err != nil {
			return nil, false, err
		}
		tc, err := core.NewShadowedCache(inner, n, cfg.Margin, cfg.Seed^0x7A105)
		return &talusMix{tc}, true, err
	}
	return nil, false, fmt.Errorf("sim: unknown mode %q (valid: %s)", cfg.Mode, ValidModes)
}

// ValidModes enumerates every management scheme buildMixCache accepts,
// for error messages and flag help that teach the caller the vocabulary.
const ValidModes = "lru, tadrrip, hill-lru, lookahead-lru, fair-lru, talus-hill, talus-fair, talus-lookahead"

// allocatorFor maps a management mode to its allocation policy and
// whether curves are convexified (the Talus pre-processing step) before
// allocation. Callers hold the alloc.Allocator value instead of
// re-switching on mode names each epoch.
func allocatorFor(mode Mode) (a alloc.Allocator, convexify bool, err error) {
	switch mode {
	case ModeFairLRU, ModeTalusFair:
		// Fair ignores the curves, so even under Talus there is nothing
		// to convexify here (Reconfigure hulls the curves itself).
		return alloc.FairAllocator, false, nil
	case ModeHillLRU:
		return alloc.HillClimbAllocator, false, nil
	case ModeLookaheadLRU:
		return alloc.LookaheadAllocator, false, nil
	case ModeTalusHill:
		return alloc.HillClimbAllocator, true, nil
	case ModeTalusLookahead:
		return alloc.LookaheadAllocator, true, nil
	}
	return nil, false, fmt.Errorf("sim: mode %q does not allocate (allocating modes: hill-lru, lookahead-lru, fair-lru, talus-hill, talus-fair, talus-lookahead)", mode)
}

// allocate runs the mode's allocation algorithm.
func allocate(mode Mode, curves []*curve.Curve, budget, granule int64) ([]int64, error) {
	a, convexify, err := allocatorFor(mode)
	if err != nil {
		return nil, err
	}
	if convexify {
		curves = core.Convexify(curves)
	}
	return a.Allocate(alloc.NewRequest(curves, budget, granule))
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

// closeEpoch closes every monitor's epoch with units[i] as monitor i's
// denominator, stores the extracted curves, and reports whether every
// monitor produced one. All epochs are closed even when an earlier
// monitor has no sampled access yet: a monitor left open would keep
// undecayed counters against an unadvanced denominator, and its next
// curve would come out over-scaled.
func closeEpoch(mons []*monitor.SlicedEpochMonitor, units []float64, curves []*curve.Curve) bool {
	ok := true
	for i, m := range mons {
		c, err := m.EpochCurve(units[i])
		if err != nil {
			ok = false
			continue
		}
		curves[i] = c
	}
	return ok
}

// RunMix simulates one multi-programmed mix and returns per-app results.
func RunMix(cfg MixConfig) (*MixResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := len(cfg.Apps)
	mc, managed, err := buildMixCache(&cfg)
	if err != nil {
		return nil, err
	}

	apps := make([]*workload.App, n)
	mons := make([]*monitor.SlicedEpochMonitor, n)
	for i, spec := range cfg.Apps {
		apps[i] = workload.NewApp(spec, cfg.Seed+uint64(i)*7919)
		if managed {
			mons[i], err = monitor.NewSlicedEpochMonitor(cfg.CapacityLines, monitor.DefaultRetain, cfg.Seed+uint64(i)*104729, 1)
			if err != nil {
				return nil, err
			}
		}
	}

	// Per-app progress state.
	cpi := make([]float64, n)       // current CPI estimate
	instrDone := make([]float64, n) // completed instructions (counted to WorkInstr)
	missesWork := make([]int64, n)  // misses within the fixed work window
	accWork := make([]int64, n)     // accesses within the fixed work window
	doneAt := make([]float64, n)    // completion time in cycles (-1 = running)
	credit := make([]float64, n)    // fractional access credit for interleaving
	for i := range cpi {
		cpi[i] = cfg.Apps[i].CPIBase // optimistic start; refined per epoch
		doneAt[i] = -1
	}

	curves := make([]*curve.Curve, n)
	allocs := make([]int64, n)
	var cycles float64
	epoch := 0

	for ; epoch < cfg.MaxEpochs; epoch++ {
		// How many accesses each app issues this epoch.
		rates := make([]float64, n) // accesses per cycle
		epochAcc := make([]int64, n)
		var totalAcc int64
		for i, spec := range cfg.Apps {
			rates[i] = spec.APKI / 1000 / cpi[i]
			credit[i] += rates[i] * float64(cfg.EpochCycles)
			epochAcc[i] = int64(credit[i])
			credit[i] -= float64(epochAcc[i])
			totalAcc += epochAcc[i]
		}

		// Interleave in fine rounds so cores contend realistically.
		const rounds = 512
		epochMisses := make([]int64, n)
		remaining := make([]int64, n)
		copy(remaining, epochAcc)
		for r := 0; r < rounds; r++ {
			for i := range apps {
				quota := epochAcc[i] / rounds
				if r < int(epochAcc[i]%rounds) {
					quota++
				}
				if quota > remaining[i] {
					quota = remaining[i]
				}
				remaining[i] -= quota
				space := adaptive.AppSpace(i)
				for k := int64(0); k < quota; k++ {
					addr := apps[i].Next() | space
					if managed {
						mons[i].Observe(addr)
					}
					if !mc.Access(addr, i) {
						epochMisses[i]++
					}
				}
			}
		}

		// Account instructions, misses, CPI, and completion.
		for i, spec := range cfg.Apps {
			if epochAcc[i] == 0 {
				continue
			}
			instr := float64(epochAcc[i]) * 1000 / spec.APKI
			mpki := float64(epochMisses[i]) / (instr / 1000)
			newCPI := CPI(spec, mpki)
			if doneAt[i] < 0 {
				// Attribute this epoch's work to the fixed-work window,
				// possibly completing it mid-epoch.
				prev := instrDone[i]
				instrDone[i] += instr
				if instrDone[i] >= float64(cfg.WorkInstr) {
					frac := (float64(cfg.WorkInstr) - prev) / instr
					doneAt[i] = cycles + frac*float64(cfg.EpochCycles)
					missesWork[i] += int64(frac * float64(epochMisses[i]))
					accWork[i] += int64(frac * float64(epochAcc[i]))
				} else {
					missesWork[i] += epochMisses[i]
					accWork[i] += epochAcc[i]
				}
			}
			cpi[i] = newCPI
		}
		cycles += float64(cfg.EpochCycles)

		allDone := true
		for i := range doneAt {
			if doneAt[i] < 0 {
				allDone = false
				break
			}
		}
		if allDone {
			epoch++
			break
		}

		// Reconfigure for the next epoch. The epoch monitors decay rather
		// than reset, so curves integrate history with a one-epoch
		// half-life.
		if managed {
			instr := make([]float64, n)
			for i, spec := range cfg.Apps {
				instr[i] = float64(epochAcc[i]) * 1000 / spec.APKI
			}
			if closeEpoch(mons, instr, curves) {
				budget := mc.Budget()
				granule := budget / 64
				if granule < 1 {
					granule = 1
				}
				allocs, err = allocate(cfg.Mode, curves, budget, granule)
				if err != nil {
					return nil, err
				}
				if err := mc.Reconfigure(allocs, curves); err != nil {
					return nil, err
				}
			}
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
			res.MPKI[i] = mpkiOf(missesWork[i], accWork[i], spec.APKI)
		}
	}
	return res, nil
}
