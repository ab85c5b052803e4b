// The trace subcommands: record, stat and import. A recorded mix is
// byte-identical to the live generator stream and replays one access per
// record, so on a cache built with the same seed replay results match
// live runs exactly — traces are the repeatable currency of the
// experiment suite.

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

func setupRecord(fs *flag.FlagSet) func(io.Writer) error {
	appsFlag := fs.String("apps", "", "comma-separated workload names (registry clones or trace:<path>)")
	out := fs.String("o", "", "output trace file")
	n := fs.Int64("n", 4<<20, "accesses per app")
	seed := fs.Uint64("seed", 42, "random seed (replays match live runs at the same seed)")
	gz := fs.Bool("gzip", true, "gzip-compress the trace body")
	return func(w io.Writer) error {
		if err := check(
			rule{len(splitList(*appsFlag)) > 0, "apps", `""`, "at least one workload"},
			rule{*out != "", "o", `""`, "an output file"},
			rule{*n > 0, "n", *n, "a positive access count"},
		); err != nil {
			return err
		}
		var specs []workload.Spec
		for _, name := range splitList(*appsFlag) {
			spec, err := workload.Resolve(name)
			if err != nil {
				return err
			}
			specs = append(specs, spec)
		}
		count, err := sim.RecordSpecs(*out, specs, *n, *seed, *gz)
		if err != nil {
			return err
		}
		info, err := os.Stat(*out)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "recorded %d accesses (%d apps × %d) to %s: %d bytes, %.2f bytes/access\n",
			count, len(specs), *n, *out, info.Size(), float64(info.Size())/float64(count))
		return nil
	}
}

func setupImport(fs *flag.FlagSet) func(io.Writer) error {
	format := fs.String("format", "", "input format: champsim (raw 64-byte instruction records) or text (addr[,partition] lines)")
	in := fs.String("i", "", "input file (- for stdin)")
	out := fs.String("o", "", "output trace file")
	gz := fs.Bool("gzip", true, "gzip-compress the trace body")
	return func(w io.Writer) error {
		if err := check(
			rule{*format == "champsim" || *format == "text", "format", fmt.Sprintf("%q", *format), "champsim or text"},
			rule{*in != "", "i", `""`, "an input file, or - for stdin"},
			rule{*out != "", "o", `""`, "an output file"},
		); err != nil {
			return err
		}
		return importTrace(w, *format, *in, *out, *gz)
	}
}

// importTrace converts in (a file, or - for stdin) from format to a
// native trace at out.
func importTrace(w io.Writer, format, in, out string, gz bool) error {
	var src io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	dst, err := os.Create(out)
	if err != nil {
		return err
	}
	var opts []trace.WriterOption
	if gz {
		opts = append(opts, trace.WithGzip())
	}
	var records int64
	var parts int
	switch format {
	case "champsim":
		parts = 1
		tw, err := trace.NewWriter(dst, 1, opts...)
		if err == nil {
			records, err = trace.ImportChampSim(src, tw)
		}
		if err == nil {
			err = tw.Close()
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
	}
	if err := dst.Close(); err != nil {
		return err
	}
	info, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "imported %d records (%d partitions) from %s %s to %s: %d bytes\n",
		records, parts, format, in, out, info.Size())
	return nil
}

func setupStat(fs *flag.FlagSet) func(io.Writer) error {
	path := fs.String("trace", "", "trace file to inspect")
	return func(w io.Writer) error {
		if err := check(rule{*path != "", "trace", `""`, "a trace file"}); err != nil {
			return err
		}
		return statTrace(w, *path)
	}
}

// statTrace prints path's header and per-partition shape.
func statTrace(w io.Writer, path string) error {
	// Stream the records rather than loading them: memory scales with
	// the trace's footprint (distinct lines), not its length, so stat
	// works on traces larger than RAM.
	r, err := trace.OpenFile(path)
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
	info, err := os.Stat(path)
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
	fmt.Fprintf(w, "%s: version %d, flags %s, %d partitions, %d records, %d bytes (%.2f bytes/record)\n",
		path, h.Version, strings.Join(flags, "+"), h.NumPartitions,
		records, info.Size(), float64(info.Size())/float64(max(records, 1)))

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
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
