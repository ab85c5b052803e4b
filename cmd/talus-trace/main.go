// Command talus-trace records, replays, and inspects binary address
// traces (internal/trace). A recorded mix is byte-identical to the live
// generator stream and replays one access per record, so on a cache
// built with the same seed replay results match live runs exactly —
// traces are the repeatable currency of the experiment suite.
//
// Usage:
//
//	talus-trace record -apps mcf,lbm -o mix.trc -n 4194304
//	talus-trace replay -trace mix.trc -mb 8 -alloc hill
//	talus-trace stat -trace mix.trc
//
// record captures the named workloads' interleaved stream (with
// per-app core-model metadata embedded) to a gzip-compressed trace.
// replay drives the online adaptive runtime (monitor → hull → Talus →
// allocator) from the trace and reports per-partition steady-state miss
// rates and allocations. stat prints the trace's header and
// per-partition shape without simulating anything. import converts
// external traces — raw ChampSim instruction traces (decompressed) or
// plain text `addr[,partition]` lines — into the native format, ready
// for replay or any trace:<path> workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"talus/internal/curve"
	"talus/internal/sim"
	"talus/internal/trace"
	"talus/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "import":
		err = cmdImport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "talus-trace: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "talus-trace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  talus-trace record -apps <a,b,...> -o <file> [-n accesses] [-seed s] [-gzip=bool]
  talus-trace replay -trace <file> [-mb size] [-alloc name] [-epoch n] [-shards n] [-tail frac] [-seed s]
  talus-trace stat   -trace <file>
  talus-trace import -format champsim|text -i <file> -o <file> [-gzip=bool]
`)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		appsFlag = fs.String("apps", "", "comma-separated workload names (registry clones or trace:<path>)")
		out      = fs.String("o", "", "output trace file")
		n        = fs.Int64("n", 4<<20, "accesses per app")
		seed     = fs.Uint64("seed", 42, "random seed (replays match live runs at the same seed)")
		gz       = fs.Bool("gzip", true, "gzip-compress the trace body")
	)
	fs.Parse(args)
	if *appsFlag == "" || *out == "" {
		return fmt.Errorf("record needs -apps and -o")
	}
	var specs []workload.Spec
	for _, name := range strings.Split(*appsFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue // tolerate stray commas
		}
		spec, err := workload.Resolve(name)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return fmt.Errorf("record: -apps named no workloads")
	}
	count, err := sim.RecordSpecs(*out, specs, *n, *seed, *gz)
	if err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses (%d apps × %d) to %s: %d bytes, %.2f bytes/access\n",
		count, len(specs), *n, *out, info.Size(), float64(info.Size())/float64(count))
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		path   = fs.String("trace", "", "trace file to replay")
		mb     = fs.Float64("mb", 8, "LLC capacity in MB")
		alloc  = fs.String("alloc", "hill", "allocator: hill, lookahead, fair, optimal")
		epoch  = fs.Int64("epoch", 0, "reconfiguration interval in accesses (0 = default)")
		shards = fs.Int("shards", 1, "cache shard count")
		tail   = fs.Float64("tail", 0.5, "trailing fraction measured for steady-state rates")
		seed   = fs.Uint64("seed", 42, "cache seed (match the recording for exact replay)")
	)
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("replay needs -trace")
	}
	res, err := sim.RunAdaptiveTraceFile(sim.AdaptiveConfig{
		CapacityLines: int64(curve.MBToLines(*mb)),
		Shards:        *shards,
		Allocator:     *alloc,
		EpochAccesses: *epoch,
		TailFrac:      *tail,
		Seed:          *seed,
	}, *path)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "partition\tapp\tMPKI\tmiss-ratio\talloc-lines\talloc-MB")
	for i := range res.Apps {
		fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.4f\t%d\t%.3f\n",
			i, res.Apps[i], res.MPKI[i], res.MissRatio[i],
			res.Allocs[i], curve.LinesToMB(float64(res.Allocs[i])))
	}
	tw.Flush()
	fmt.Printf("\nepochs: %d (reconfigurations driven by the replayed stream)\n", res.Epochs)
	return nil
}

func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	var (
		format = fs.String("format", "", "input format: champsim (raw 64-byte instruction records) or text (addr[,partition] lines)")
		in     = fs.String("i", "", "input file (- for stdin)")
		out    = fs.String("o", "", "output trace file")
		gz     = fs.Bool("gzip", true, "gzip-compress the trace body")
	)
	fs.Parse(args)
	if *format == "" || *in == "" || *out == "" {
		return fmt.Errorf("import needs -format, -i, and -o")
	}
	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	dst, err := os.Create(*out)
	if err != nil {
		return err
	}
	var opts []trace.WriterOption
	if *gz {
		opts = append(opts, trace.WithGzip())
	}
	var records int64
	var parts int
	switch *format {
	case "champsim":
		parts = 1
		w, err := trace.NewWriter(dst, 1, opts...)
		if err == nil {
			records, err = trace.ImportChampSim(src, w)
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			dst.Close()
			return err
		}
	case "text":
		recs, np, err := trace.ParseText(src)
		if err == nil {
			parts = np
			records = int64(len(recs))
			err = trace.WriteRecords(dst, np, recs, opts...)
		}
		if err != nil {
			dst.Close()
			return err
		}
	default:
		dst.Close()
		return fmt.Errorf("import: unknown format %q (want champsim or text)", *format)
	}
	if err := dst.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("imported %d records (%d partitions) from %s %s to %s: %d bytes\n",
		records, parts, *format, *in, *out, info.Size())
	return nil
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	path := fs.String("trace", "", "trace file to inspect")
	fs.Parse(args)
	if *path == "" && fs.NArg() == 1 {
		*path = fs.Arg(0)
	}
	if *path == "" {
		return fmt.Errorf("stat needs -trace")
	}
	// Stream the records rather than loading them: memory scales with
	// the trace's footprint (distinct lines), not its length, so stat
	// works on traces larger than RAM.
	r, err := trace.OpenFile(*path)
	if err != nil {
		return err
	}
	defer r.Close()
	h := r.Header()
	counts := make([]int64, h.NumPartitions)
	distinct := make([]map[uint64]struct{}, h.NumPartitions)
	for p := range distinct {
		distinct[p] = make(map[uint64]struct{})
	}
	var records int64
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		counts[rec.P]++
		distinct[rec.P][rec.Addr] = struct{}{}
		records++
	}
	info, err := os.Stat(*path)
	if err != nil {
		return err
	}
	var flags []string
	if h.Flags&trace.FlagGzip != 0 {
		flags = append(flags, "gzip")
	}
	if h.Flags&trace.FlagMeta != 0 {
		flags = append(flags, "meta")
	}
	if len(flags) == 0 {
		flags = append(flags, "none")
	}
	fmt.Printf("%s: version %d, flags %s, %d partitions, %d records, %d bytes (%.2f bytes/record)\n",
		*path, h.Version, strings.Join(flags, "+"), h.NumPartitions,
		records, info.Size(), float64(info.Size())/float64(max(records, 1)))

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "partition\tapp\taccesses\tdistinct-lines\tfootprint-MB\tAPKI\tCPIbase\tMLP")
	for p := 0; p < h.NumPartitions; p++ {
		name, apki, cpi, mlp := "-", "-", "-", "-"
		if h.Apps != nil && p < len(h.Apps) {
			m := h.Apps[p]
			name = m.Name
			apki = fmt.Sprintf("%.3g", m.APKI)
			cpi = fmt.Sprintf("%.3g", m.CPIBase)
			mlp = fmt.Sprintf("%.3g", m.MLP)
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%.3f\t%s\t%s\t%s\n",
			p, name, counts[p], len(distinct[p]), curve.LinesToMB(float64(len(distinct[p]))), apki, cpi, mlp)
	}
	return tw.Flush()
}
