// Command talus-sim runs a multi-programmed CMP simulation described by a
// JSON spec and reports per-app IPC, MPKI, and speedups over the
// unpartitioned-LRU baseline.
//
// Usage:
//
//	talus-sim -spec mix.json
//	talus-sim -apps mcf,lbm,omnetpp,xalancbmk -mode talus-hill -mb 4
//	talus-sim -spec mix.json -mb 8 -seed 7     # flags override spec fields
//	talus-sim -adaptive -trace mix.trc -mb 8   # exact replay of a recording
//
// Spec file format (unknown keys are rejected):
//
//	{
//	  "apps": ["mcf", "lbm", "omnetpp", "xalancbmk"],
//	  "capacity_mb": 4,
//	  "mode": "talus-hill",
//	  "work_instr": 52428800,
//	  "epoch_cycles": 1048576,
//	  "seed": 42,
//	  "trace_files": ["mix.trc"]
//	}
//
// Apps name registry clones or "trace:<path>" recordings; trace_files
// (or -trace) adds every partition of the listed recordings as a
// replayed app. Explicitly-set command-line flags override the
// corresponding spec fields.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"

	"talus/internal/curve"
	"talus/internal/sim"
	"talus/internal/stats"
	"talus/internal/workload"
)

func main() {
	var (
		specPath = flag.String("spec", "", "JSON simulation spec")
		appsFlag = flag.String("apps", "", "comma-separated app list (registry clones or trace:<path>)")
		mode     = flag.String("mode", "talus-hill", "management mode ("+sim.ValidModes+")")
		mb       = flag.Float64("mb", 8, "LLC capacity in MB")
		work     = flag.Int64("work", 30<<20, "fixed work per app (instructions)")
		seed     = flag.Uint64("seed", 42, "random seed")
		par      = flag.Int("parallelism", runtime.GOMAXPROCS(0), "worker pool size for concurrent mix simulation")
		traceF   = flag.String("trace", "", "comma-separated trace files replayed as apps (exact adaptive replay when it is the only source)")

		adaptiveF = flag.Bool("adaptive", false, "run the online adaptive runtime (monitor→hull→allocator control loop) instead of the cycle-driven CPU simulation")
		epochF    = flag.Int64("epoch", 0, "adaptive reconfiguration interval in accesses (0 = default)")
		allocF    = flag.String("alloc", "hill", "adaptive allocator: hill, lookahead, fair, optimal")
		accessesF = flag.Int64("accesses", 4<<20, "adaptive traffic per app (accesses)")
		shardsF   = flag.Int("shards", 1, "adaptive cache shard count")
		tailF     = flag.Float64("tail", 0, "adaptive trailing fraction measured for steady-state rates (0 = default 0.5)")
		weightsF  = flag.String("weights", "", "adaptive per-app objective weights in app order, e.g. 4,1,1,1 (empty = uniform)")
		selfTuneF = flag.Bool("self-tune", false, "adaptive churn-driven epoch controller")
		minEpochF = flag.Int64("min-epoch", 0, "self-tuner's epoch budget floor in accesses (0 = the -epoch budget)")
		maxEpochF = flag.Int64("max-epoch", 0, "self-tuner's epoch budget ceiling in accesses (0 = 16x the floor)")
	)
	flag.Parse()

	weightsV, err := parseWeights(*weightsF)
	if err != nil {
		fatal(err)
	}
	vals := flagValues{
		apps: *appsFlag, mode: *mode, mb: *mb, work: *work, seed: *seed,
		adaptive: *adaptiveF, epoch: *epochF, alloc: *allocF,
		accesses: *accessesF, shards: *shardsF, tail: *tailF, traces: *traceF,
		weights: weightsV, selfTune: *selfTuneF,
		minEpoch: *minEpochF, maxEpoch: *maxEpochF,
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var spec specFile
	if *specPath != "" {
		var err error
		if spec, err = loadSpec(*specPath); err != nil {
			fatal(err)
		}
		// Explicit flags override the spec's fields.
		spec.applyFlags(set, vals)
	} else if *appsFlag != "" || *traceF != "" {
		// No spec: every flag is authoritative, set or not.
		spec = specFile{
			Apps:          splitList(*appsFlag),
			CapacityMB:    *mb,
			Mode:          *mode,
			WorkInstr:     *work,
			Seed:          *seed,
			TraceFiles:    splitList(*traceF),
			Adaptive:      *adaptiveF,
			EpochAccesses: *epochF,
			Allocator:     *allocF,
			Accesses:      *accessesF,
			Shards:        *shardsF,
			TailFrac:      *tailF,
			Weights:       weightsV,
			SelfTune:      *selfTuneF,
			MinEpoch:      *minEpochF,
			MaxEpoch:      *maxEpochF,
		}
	} else {
		flag.Usage()
		os.Exit(2)
	}

	// An adaptive run whose only source is one trace file replays the
	// recorded stream exactly, record by record.
	if spec.Adaptive && len(spec.Apps) == 0 && len(spec.TraceFiles) == 1 {
		runAdaptiveTrace(spec)
		return
	}

	apps := make([]workload.Spec, 0, len(spec.Apps))
	for _, name := range spec.Apps {
		s, err := workload.Resolve(name)
		if err != nil {
			fatal(err)
		}
		apps = append(apps, s)
	}
	for _, path := range spec.TraceFiles {
		traced, err := sim.SpecsFromTrace(path)
		if err != nil {
			fatal(fmt.Errorf("trace %s: %w", path, err))
		}
		apps = append(apps, traced...)
	}
	if len(apps) == 0 {
		fatal(fmt.Errorf("no apps: give -apps, -trace, or spec fields"))
	}

	if spec.Adaptive {
		runAdaptive(spec, apps)
		return
	}
	mixCfg := sim.MixConfig{
		Apps:          apps,
		CapacityLines: int64(curve.MBToLines(spec.CapacityMB)),
		Mode:          sim.Mode(spec.Mode),
		WorkInstr:     spec.WorkInstr,
		EpochCycles:   spec.EpochCycles,
		Seed:          spec.Seed,
	}

	// The baseline and the managed run are independent simulations: fan
	// them across the worker pool.
	baseCfg := mixCfg
	baseCfg.Mode = sim.ModeLRU
	results, err := sim.RunMixes([]sim.MixConfig{baseCfg, mixCfg}, *par)
	if err != nil {
		fatal(err)
	}
	base, res := results[0], results[1]

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tIPC\tMPKI\thit-ratio\tlru-hit-ratio\tspeedup-vs-LRU")
	for i := range apps {
		fmt.Fprintf(tw, "%s\t%.4f\t%.3f\t%.4f\t%.4f\t%.3f\n",
			res.Apps[i], res.IPC[i], res.MPKI[i],
			hitRatio(res.MPKI[i], apps[i].APKI), hitRatio(base.MPKI[i], apps[i].APKI),
			res.IPC[i]/base.IPC[i])
	}
	tw.Flush()
	fmt.Printf("\nweighted speedup: %.4f\nharmonic speedup: %.4f\nepochs: %d\n",
		stats.WeightedSpeedup(res.IPC, base.IPC),
		stats.HarmonicSpeedup(res.IPC, base.IPC),
		res.Epochs)
}

// adaptiveCfg maps the shared spec fields onto an AdaptiveConfig.
func adaptiveCfg(spec specFile) sim.AdaptiveConfig {
	return sim.AdaptiveConfig{
		CapacityLines:  int64(curve.MBToLines(spec.CapacityMB)),
		Shards:         spec.Shards,
		Allocator:      spec.Allocator,
		EpochAccesses:  spec.EpochAccesses,
		AccessesPerApp: spec.Accesses,
		TailFrac:       spec.TailFrac,
		Weights:        spec.Weights,
		SelfTune:       spec.SelfTune,
		MinEpoch:       spec.MinEpoch,
		MaxEpoch:       spec.MaxEpoch,
		Seed:           spec.Seed,
	}
}

// runAdaptive drives the online control loop: no CPU model, no offline
// curves — the cache measures, convexifies, allocates, and reconfigures
// itself from its own traffic.
func runAdaptive(spec specFile, apps []workload.Spec) {
	cfg := adaptiveCfg(spec)
	cfg.Apps = apps
	res, err := sim.RunAdaptive(cfg)
	if err != nil {
		fatal(err)
	}
	printAdaptive(res)
}

// runAdaptiveTrace replays a recorded stream through the adaptive loop.
func runAdaptiveTrace(spec specFile) {
	res, err := sim.RunAdaptiveTraceFile(adaptiveCfg(spec), spec.TraceFiles[0])
	if err != nil {
		fatal(err)
	}
	printAdaptive(res)
}

func printAdaptive(res *sim.AdaptiveResult) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tMPKI\tmiss-ratio\talloc-lines\talloc-MB")
	for i := range res.Apps {
		fmt.Fprintf(tw, "%s\t%.3f\t%.4f\t%d\t%.3f\n",
			res.Apps[i], res.MPKI[i], res.MissRatio[i],
			res.Allocs[i], curve.LinesToMB(float64(res.Allocs[i])))
	}
	tw.Flush()
	fmt.Printf("\nepochs: %d (reconfigurations driven by the access stream)\n", res.Epochs)
}

// hitRatio converts an app's MPKI to its LLC hit ratio: accesses per
// kilo-instruction is the spec's APKI, so 1 − MPKI/APKI, clamped to
// [0, 1] against measurement noise at the extremes.
func hitRatio(mpki, apki float64) float64 {
	if apki <= 0 {
		return 0
	}
	h := 1 - mpki/apki
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "talus-sim: %v\n", err)
	os.Exit(1)
}
