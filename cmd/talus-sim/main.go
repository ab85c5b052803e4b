// Command talus-sim runs one multi-programmed mix and reports per-app
// outcomes. Flags are the one way in; there are two run kinds:
//
//   - the cycle-driven CMP simulation (the default): per-app IPC, MPKI
//     and speedups over the unpartitioned-LRU baseline, managed by -mode
//     for -work instructions per app;
//   - -adaptive: the online control loop (monitor → hull → allocator at
//     a fixed -epoch) driven purely by the access stream, reporting
//     per-app miss ratios and converged allocations.
//
// Usage:
//
//	talus-sim -apps mcf,lbm,omnetpp,xalancbmk -mode talus-hill -mb 4
//	talus-sim -adaptive -apps mcf,lbm -mb 2 -epoch 131072 -weights 4,1
//	talus-sim -adaptive -trace mix.trc -mb 8   # exact replay of a recording
//
// -apps names registry clones or "trace:<path>" recordings; -trace adds
// every partition of the listed recordings as a replayed app. A flag
// the chosen run kind does not read (-weights without -adaptive, -mode
// with it) is refused rather than silently ignored.
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
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkRunKind(*adaptiveF, set); err != nil {
		fatal(err)
	}
	weights, err := parseWeights(*weightsF)
	if err != nil {
		fatal(err)
	}
	appNames, traceFiles := splitList(*appsFlag), splitList(*traceF)
	if len(appNames) == 0 && len(traceFiles) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	capacity := int64(curve.MBToLines(*mb))
	acfg := sim.AdaptiveConfig{
		CapacityLines:  capacity,
		Shards:         *shardsF,
		Allocator:      *allocF,
		EpochAccesses:  *epochF,
		AccessesPerApp: *accessesF,
		TailFrac:       *tailF,
		Weights:        weights,
		Seed:           *seed,
	}

	// An adaptive run whose only source is one trace file replays the
	// recorded stream exactly, record by record.
	if *adaptiveF && len(appNames) == 0 && len(traceFiles) == 1 {
		printAdaptive(sim.RunAdaptiveTraceFile(acfg, traceFiles[0]))
		return
	}

	apps := make([]workload.Spec, 0, len(appNames))
	for _, name := range appNames {
		s, err := workload.Resolve(name)
		if err != nil {
			fatal(err)
		}
		apps = append(apps, s)
	}
	for _, path := range traceFiles {
		traced, err := sim.SpecsFromTrace(path)
		if err != nil {
			fatal(fmt.Errorf("trace %s: %w", path, err))
		}
		apps = append(apps, traced...)
	}
	if len(apps) == 0 {
		fatal(fmt.Errorf("no apps: give -apps or -trace"))
	}

	// The online control loop: no CPU model, no offline curves — the
	// cache measures, convexifies, allocates, and reconfigures itself
	// from its own traffic.
	if *adaptiveF {
		acfg.Apps = apps
		printAdaptive(sim.RunAdaptive(acfg))
		return
	}
	mixCfg := sim.MixConfig{
		Apps:          apps,
		CapacityLines: capacity,
		Mode:          sim.Mode(*mode),
		WorkInstr:     *work,
		Seed:          *seed,
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

// printAdaptive reports an adaptive run, or exits on its error.
func printAdaptive(res *sim.AdaptiveResult, err error) {
	if err != nil {
		fatal(err)
	}
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
