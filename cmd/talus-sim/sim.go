// The simulation subcommands: mix, adaptive and sweep.

package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"

	"talus/internal/curve"
	"talus/internal/sim"
	"talus/internal/stats"
	"talus/internal/workload"
)

// appFlags are the flags mix and adaptive share.
type appFlags struct {
	apps, trace *string
	mb          *float64
	seed        *uint64
}

// declareApps declares the shared flags; traceUsage says what -trace
// means to the run kind.
func declareApps(fs *flag.FlagSet, traceUsage string) appFlags {
	return appFlags{
		apps:  fs.String("apps", "", "comma-separated app list (registry clones, generators or gen:<generator>,k=v...)"),
		trace: fs.String("trace", "", traceUsage),
		mb:    fs.Float64("mb", 8, "LLC capacity in MB"),
		seed:  fs.Uint64("seed", 42, "random seed"),
	}
}

// rules are the range conditions on the shared flags.
func (a appFlags) rules() []rule {
	return []rule{
		{len(splitList(*a.apps))+len(splitList(*a.trace)) > 0, "apps", `""`, "at least one app (or -trace)"},
		{*a.mb > 0, "mb", *a.mb, "a positive LLC size in MB"},
	}
}

// resolve names the apps: -apps in order, then every partition of each
// -trace recording.
func (a appFlags) resolve() ([]workload.Spec, error) {
	names, err := splitApps(*a.apps)
	if err != nil {
		return nil, err
	}
	var apps []workload.Spec
	for _, name := range names {
		s, err := workload.Resolve(name)
		if err != nil {
			return nil, err
		}
		apps = append(apps, s)
	}
	for _, path := range splitList(*a.trace) {
		traced, err := sim.SpecsFromTrace(path)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", path, err)
		}
		apps = append(apps, traced...)
	}
	return apps, nil
}

func setupMix(fs *flag.FlagSet) func(io.Writer) error {
	a := declareApps(fs, "comma-separated trace files, every partition replayed as an app after -apps")
	mode := fs.String("mode", "talus-hill", "management mode ("+sim.ValidModes+")")
	work := fs.Int64("work", 30<<20, "fixed work per app (instructions)")
	par := fs.Int("parallelism", runtime.GOMAXPROCS(0), "worker pool size for the baseline and managed runs (0 = GOMAXPROCS)")
	return func(w io.Writer) error {
		if err := check(append(a.rules(),
			rule{*work > 0, "work", *work, "a positive instruction count"},
			rule{*par >= 0, "parallelism", *par, "a worker count, or 0 for GOMAXPROCS"},
		)...); err != nil {
			return err
		}
		apps, err := a.resolve()
		if err != nil {
			return err
		}
		mixCfg := sim.MixConfig{
			Apps:          apps,
			CapacityLines: int64(curve.MBToLines(*a.mb)),
			Mode:          sim.Mode(*mode),
			WorkInstr:     *work,
			Seed:          *a.seed,
		}
		// The baseline and the managed run are independent simulations:
		// fan them across the worker pool.
		baseCfg := mixCfg
		baseCfg.Mode = sim.ModeLRU
		cfgs := [2]sim.MixConfig{baseCfg, mixCfg}
		var results [2]*sim.MixResult
		var errs [2]error
		sim.ParallelFor(2, sim.Workers(*par), func(i int) {
			results[i], errs[i] = sim.RunMix(cfgs[i])
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		base, res := results[0], results[1]

		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "app\tIPC\tMPKI\thit-ratio\tlru-hit-ratio\tspeedup-vs-LRU")
		for i := range apps {
			fmt.Fprintf(tw, "%s\t%.4f\t%.3f\t%.4f\t%.4f\t%.3f\n",
				res.Apps[i], res.IPC[i], res.MPKI[i],
				hitRatio(res.MPKI[i], apps[i].APKI), hitRatio(base.MPKI[i], apps[i].APKI),
				res.IPC[i]/base.IPC[i])
		}
		tw.Flush()
		fmt.Fprintf(w, "\nweighted speedup: %.4f\nharmonic speedup: %.4f\nepochs: %d\n",
			stats.WeightedSpeedup(res.IPC, base.IPC),
			stats.HarmonicSpeedup(res.IPC, base.IPC),
			res.Epochs)
		return nil
	}
}

func setupAdaptive(fs *flag.FlagSet) func(io.Writer) error {
	a := declareApps(fs, "one trace file to replay exactly, instead of -apps")
	epoch := fs.Int64("epoch", 0, "reconfiguration interval in accesses (0 = default)")
	accesses := fs.Int64("accesses", 4<<20, "traffic per app (accesses)")
	shards := fs.Int("shards", 1, "cache shard count")
	tail := fs.Float64("tail", 0, "trailing fraction of each app's accesses measured for steady-state rates (0 = default 0.5)")
	weightsF := fs.String("weights", "", "per-app objective weights in app order, e.g. 4,1,1,1 (empty = uniform)")
	return func(w io.Writer) error {
		// -trace replays one recording exactly: the recording names its
		// apps and sets its length, so -apps and -accesses are refused
		// beside it rather than silently changing what runs.
		replay := *a.trace != ""
		if err := check(append(a.rules(),
			rule{!replay || len(splitList(*a.trace)) == 1, "trace", *a.trace, "one trace file"},
			rule{!replay || *a.apps == "", "apps", *a.apps, "no apps beside -trace (the recording names its own)"},
			rule{!replay || !isSet(fs, "accesses"), "accesses", *accesses, "no access count beside -trace (the recording sets its own)"},
			rule{*epoch >= 0, "epoch", *epoch, "an access count, or 0 for the default"},
			rule{*accesses > 0, "accesses", *accesses, "a positive access count"},
			rule{*shards >= 1, "shards", *shards, "at least 1 shard"},
			rule{*tail >= 0 && *tail <= 1, "tail", *tail, "a fraction in (0, 1], or 0 for the default"},
		)...); err != nil {
			return err
		}
		weights, err := parseWeights(*weightsF)
		if err != nil {
			return err
		}
		cfg := sim.AdaptiveConfig{
			CapacityLines:  int64(curve.MBToLines(*a.mb)),
			Shards:         *shards,
			EpochAccesses:  *epoch,
			AccessesPerApp: *accesses,
			TailFrac:       *tail,
			Weights:        weights,
			Seed:           *a.seed,
		}
		var res *sim.AdaptiveResult
		if replay {
			res, err = sim.RunAdaptiveTraceFile(cfg, splitList(*a.trace)[0])
		} else {
			// The online control loop: no CPU model, no offline curves —
			// the cache measures, convexifies, allocates, and
			// reconfigures itself from its own traffic.
			if cfg.Apps, err = a.resolve(); err != nil {
				return err
			}
			res, err = sim.RunAdaptive(cfg)
		}
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "app\tMPKI\tmiss-ratio\talloc-lines\talloc-MB")
		for i := range res.Apps {
			fmt.Fprintf(tw, "%s\t%.3f\t%.4f\t%d\t%.3f\n",
				res.Apps[i], res.MPKI[i], res.MissRatio[i],
				res.Allocs[i], curve.LinesToMB(float64(res.Allocs[i])))
		}
		tw.Flush()
		fmt.Fprintf(w, "\nepochs: %d (reconfigurations driven by the access stream)\n", res.Epochs)
		return nil
	}
}

func setupSweep(fs *flag.FlagSet) func(io.Writer) error {
	app := fs.String("app", "", "workload clone name")
	policy := fs.String("policy", "LRU", "replacement policy")
	scheme := fs.String("scheme", "", "partitioning scheme (default: none, or vantage with -talus)")
	talus := fs.Bool("talus", false, "enable Talus shadow partitioning")
	minMB := fs.Float64("min", 0.25, "smallest LLC size (MB)")
	maxMB := fs.Float64("max", 16, "largest LLC size (MB)")
	points := fs.Int("points", 10, "number of sweep points, spaced evenly from -min to -max")
	mon := fs.Int("monitor-points", 0, "per-size monitors profiling a -talus run (0 = the LRU-stack bank for LRU, 64 monitors for any other policy)")
	seed := fs.Uint64("seed", 1, "random seed")
	return func(w io.Writer) error {
		if err := check(
			rule{*points >= 2, "points", *points, "at least 2 sweep points"},
			rule{*minMB > 0, "min", *minMB, "a positive size in MB"},
			rule{*maxMB > *minMB, "max", *maxMB, fmt.Sprintf("a size above -min (%g MB)", *minMB)},
			rule{*mon == 0 || *mon >= 2, "monitor-points", *mon, "0 for the default, or at least 2 monitors"},
		); err != nil {
			return err
		}
		spec, ok := workload.Lookup(*app)
		if !ok {
			return usageError{fmt.Errorf("unknown app %q; the clones are:\n%s", *app, cloneList())}
		}
		sizes := make([]int64, *points)
		for i := range sizes {
			mb := *minMB + (*maxMB-*minMB)*float64(i)/float64(*points-1)
			sizes[i] = int64(curve.MBToLines(mb))
		}
		c, err := sim.RunSweep(sim.SweepConfig{
			App:           spec,
			SizesLines:    sizes,
			Policy:        *policy,
			Scheme:        *scheme,
			Talus:         *talus,
			MonitorPoints: *mon,
			Seed:          *seed,
		})
		if err != nil {
			return err
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "size(MB)\tMPKI\tIPC")
		for _, p := range c.Points() {
			fmt.Fprintf(tw, "%.3f\t%.4f\t%.4f\n",
				curve.LinesToMB(p.Size), p.MPKI, sim.IPC(spec, p.MPKI))
		}
		return tw.Flush()
	}
}

// cloneList is one line per registry clone with its core-model shape.
func cloneList() string {
	var out string
	for _, name := range workload.Names() {
		spec, _ := workload.Lookup(name)
		out += fmt.Sprintf("  %-12s APKI=%-5.2g CPIbase=%-4.2g MLP=%.2g\n",
			name, spec.APKI, spec.CPIBase, spec.MLP)
	}
	return out
}

// hitRatio converts an app's MPKI to its LLC hit ratio: accesses per
// kilo-instruction is the spec's APKI, so 1 − MPKI/APKI, clamped to
// [0, 1] against measurement noise at the extremes.
func hitRatio(mpki, apki float64) float64 {
	if apki <= 0 {
		return 0
	}
	return min(max(1-mpki/apki, 0), 1)
}
