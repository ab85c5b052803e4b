// Command misscurve measures and prints the miss curve of a workload
// clone under a chosen policy and partitioning scheme, optionally with
// Talus enabled — the building block for custom sweeps.
//
// Usage:
//
//	misscurve -app libquantum -policy LRU -min 1 -max 40 -points 14
//	misscurve -app xalancbmk -talus -scheme vantage
//	misscurve -list                # show available workloads
//	misscurve -app mcf -trace t.bin -n 1000000   # dump a trace instead
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"talus/internal/curve"
	"talus/internal/sim"
	"talus/internal/trace"
	"talus/internal/workload"
)

func main() {
	var (
		app     = flag.String("app", "", "workload clone name")
		policy  = flag.String("policy", "LRU", "replacement policy")
		scheme  = flag.String("scheme", "", "partitioning scheme (default: none, or vantage with -talus)")
		talus   = flag.Bool("talus", false, "enable Talus shadow partitioning")
		minMB   = flag.Float64("min", 0.25, "smallest LLC size (MB)")
		maxMB   = flag.Float64("max", 16, "largest LLC size (MB)")
		points  = flag.Int("points", 10, "number of sweep points")
		mon     = flag.Int("monitor-points", 0, "per-size monitors profiling a -talus run (0 = the LRU-stack bank for LRU, 64 monitors for any other policy)")
		seed    = flag.Uint64("seed", 1, "random seed")
		list    = flag.Bool("list", false, "list workloads and exit")
		traceTo = flag.String("trace", "", "dump a trace to this file instead of sweeping")
		traceN  = flag.Int("n", 1<<20, "trace length with -trace")
	)
	flag.Parse()
	if err := checkFlags(*minMB, *maxMB, *points, *traceN); err != nil {
		fmt.Fprintf(os.Stderr, "misscurve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, name := range workload.Names() {
			spec, _ := workload.Lookup(name)
			fmt.Printf("%-12s APKI=%-5.2g CPIbase=%-4.2g MLP=%.2g\n",
				name, spec.APKI, spec.CPIBase, spec.MLP)
		}
		return
	}
	spec, ok := workload.Lookup(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "misscurve: unknown app %q (try -list)\n", *app)
		os.Exit(2)
	}

	if *traceTo != "" {
		gen := workload.NewApp(spec, *seed)
		if err := writeTrace(*traceTo, trace.Capture(gen.Next, *traceN)); err != nil {
			fmt.Fprintf(os.Stderr, "misscurve: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d accesses to %s\n", *traceN, *traceTo)
		return
	}

	sizes := make([]int64, *points)
	for i := range sizes {
		mb := *minMB + (*maxMB-*minMB)*float64(i)/float64(*points-1)
		sizes[i] = int64(curve.MBToLines(mb))
	}
	cfg := sim.SweepConfig{
		App:           spec,
		SizesLines:    sizes,
		Policy:        *policy,
		Scheme:        *scheme,
		Talus:         *talus,
		MonitorPoints: *mon,
		Seed:          *seed,
	}
	c, err := sim.RunSweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "misscurve: %v\n", err)
		os.Exit(1)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "size(MB)\tMPKI\tIPC")
	for _, p := range c.Points() {
		fmt.Fprintf(tw, "%.3f\t%.4f\t%.4f\n",
			curve.LinesToMB(p.Size), p.MPKI, sim.IPC(spec, p.MPKI))
	}
	tw.Flush()
}

// checkFlags refuses a sweep that cannot be laid out (the sizes are
// -points values spaced evenly from -min to -max) or an empty trace.
func checkFlags(minMB, maxMB float64, points, traceN int) error {
	switch {
	case points < 2:
		return fmt.Errorf("-points %d: a sweep needs at least 2 points", points)
	case !(minMB > 0):
		return fmt.Errorf("-min %g: want a positive size in MB", minMB)
	case !(maxMB > minMB):
		return fmt.Errorf("-max %g: want a size above -min (%g MB)", maxMB, minMB)
	case traceN <= 0:
		return fmt.Errorf("-n %d: want a positive trace length", traceN)
	}
	return nil
}

// writeTrace writes addrs to path as a one-partition trace.
func writeTrace(path string, addrs []uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f, 1)
	if err == nil {
		err = w.AppendBatch(0, addrs)
	}
	if err == nil {
		err = w.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
