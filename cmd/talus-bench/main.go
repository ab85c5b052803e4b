// Command talus-bench runs the serving and adaptive hot-path benchmarks
// and emits a machine-readable JSON baseline, so the serving layer's
// performance trajectory is tracked across PRs the same way the figure
// experiments track fidelity.
//
// Usage:
//
//	talus-bench [-bench regex] [-benchtime 2s] [-count 1] [-pkg .] [-out BENCH_serving.json] [-append]
//
// It shells out to `go test -run ^$ -bench <regex> -benchmem` (the repo
// must be the working directory), parses the standard benchmark output
// lines, and writes
//
//	{
//	  "go": "go1.24",
//	  "gomaxprocs": 8,
//	  "benchmarks": [
//	    {"name": "StoreGetParallel", "procs": 8, "iterations": 12345,
//	     "ns_per_op": 208.7, "b_per_op": 0, "allocs_per_op": 0},
//	    ...
//	  ]
//	}
//
// The default regex covers the keyed-store Get/Set paths, the batched
// adaptive datapath, and its non-monitored floor, which is exactly the
// set DESIGN.md's hot-path section quotes. `make bench-serving` runs it
// with the defaults.
//
// With -append, rows from an existing -out file are kept and merged:
// a row is keyed by (name, procs), so a GOMAXPROCS=4 pass adds -4 rows
// next to the single-proc baseline instead of erasing it. `make
// bench-serving-matrix` uses this to put the contended (procs > 1)
// shape of the same hot paths beside the baseline in BENCH_serving.json.
//
// With -compare, the tool inverts its role: instead of writing a
// baseline it runs the benchmarks fresh, diffs them against the
// committed -out file keyed by (name, procs), prints a delta table, and
// exits non-zero when any benchmark regressed by more than -threshold
// (fractional ns/op growth; 0.10 = 10%). Rows present on only one side
// are reported but never fail the run — machines differ, and new
// benchmarks need a first landing. `make bench-compare` runs it; CI has
// a non-blocking lane doing the same so the delta table lands in every
// run's log without gating merges on shared-runner noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// DefaultBenchRegex selects the serving/adaptive hot-path benchmarks.
const DefaultBenchRegex = "StoreGet|StoreSet|AdaptiveAccessBatch|ShadowedShardedBatch|UMONObserve"

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the emitted JSON document.
type Report struct {
	Go         string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Bench      string   `json:"bench"`
	Benchtime  string   `json:"benchtime"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches `BenchmarkName-8  123  45.6 ns/op  7 B/op  8 allocs/op`
// (the -procs suffix and the memory columns are optional).
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	var (
		bench     = flag.String("bench", DefaultBenchRegex, "benchmark regex passed to go test -bench")
		benchtime = flag.String("benchtime", "2s", "go test -benchtime value (e.g. 2s, 100x)")
		count     = flag.Int("count", 1, "go test -count value")
		pkg       = flag.String("pkg", ".", "package pattern to bench")
		out       = flag.String("out", "BENCH_serving.json", "output JSON path (- for stdout); with -compare, the baseline to diff against")
		appendOut = flag.Bool("append", false, "merge into an existing -out file: rows keyed by (name, procs), new rows win")
		compare   = flag.Bool("compare", false, "run fresh and diff against -out instead of writing it; non-zero exit past -threshold")
		threshold = flag.Float64("threshold", 0.10, "fractional ns/op regression -compare tolerates per benchmark (0.10 = 10%)")
	)
	flag.Parse()
	if *compare {
		if err := runCompare(*bench, *benchtime, *count, *pkg, *out, *threshold); err != nil {
			fmt.Fprintf(os.Stderr, "talus-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*bench, *benchtime, *count, *pkg, *out, *appendOut); err != nil {
		fmt.Fprintf(os.Stderr, "talus-bench: %v\n", err)
		os.Exit(1)
	}
}

// runBench shells out to go test -bench and parses the results.
func runBench(bench, benchtime string, count int, pkg string) ([]Result, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", bench, "-benchmem", "-benchtime", benchtime,
		"-count", strconv.Itoa(count), pkg)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return Parse(string(raw))
}

// Delta is one benchmark's baseline-vs-fresh comparison. Frac is the
// fractional ns/op change (+0.12 = 12% slower than baseline); it is NaN
// for rows present on only one side.
type Delta struct {
	Name            string
	Procs           int
	BaseNs, FreshNs float64
	Frac            float64
}

// Diff pairs baseline and fresh rows by (name, procs), in fresh-run
// order followed by baseline-only rows.
func Diff(baseline, fresh []Result) []Delta {
	type key struct {
		name  string
		procs int
	}
	base := make(map[key]Result, len(baseline))
	for _, r := range baseline {
		base[key{r.Name, r.Procs}] = r
	}
	var out []Delta
	seen := make(map[key]bool, len(fresh))
	for _, r := range fresh {
		k := key{r.Name, r.Procs}
		seen[k] = true
		d := Delta{Name: r.Name, Procs: r.Procs, FreshNs: r.NsPerOp, Frac: math.NaN()}
		if b, ok := base[k]; ok && b.NsPerOp > 0 {
			d.BaseNs = b.NsPerOp
			d.Frac = (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		out = append(out, d)
	}
	for _, r := range baseline {
		if !seen[key{r.Name, r.Procs}] {
			out = append(out, Delta{Name: r.Name, Procs: r.Procs, BaseNs: r.NsPerOp, Frac: math.NaN()})
		}
	}
	return out
}

// FormatDeltas renders the comparison table talus-bench -compare prints.
func FormatDeltas(deltas []Delta, threshold float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %5s %12s %12s %9s\n", "benchmark", "procs", "baseline", "fresh", "delta")
	for _, d := range deltas {
		switch {
		case d.BaseNs == 0:
			fmt.Fprintf(&b, "%-28s %5d %12s %9.1f ns %9s\n", d.Name, d.Procs, "—", d.FreshNs, "new")
		case d.FreshNs == 0:
			fmt.Fprintf(&b, "%-28s %5d %9.1f ns %12s %9s\n", d.Name, d.Procs, d.BaseNs, "—", "gone")
		default:
			mark := ""
			if d.Frac > threshold {
				mark = "  REGRESSED"
			}
			fmt.Fprintf(&b, "%-28s %5d %9.1f ns %9.1f ns %+8.1f%%%s\n",
				d.Name, d.Procs, d.BaseNs, d.FreshNs, 100*d.Frac, mark)
		}
	}
	return b.String()
}

// Regressions returns the deltas whose fractional slowdown exceeds
// threshold (one-sided rows never regress).
func Regressions(deltas []Delta, threshold float64) []Delta {
	var out []Delta
	for _, d := range deltas {
		if !math.IsNaN(d.Frac) && d.Frac > threshold {
			out = append(out, d)
		}
	}
	return out
}

// runCompare implements -compare: fresh run, diff against the committed
// baseline, delta table on stdout, error when any row regressed past
// threshold.
func runCompare(bench, benchtime string, count int, pkg, baselinePath string, threshold float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("-compare: reading baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("-compare: baseline %s is not a talus-bench report: %w", baselinePath, err)
	}
	fresh, err := runBench(bench, benchtime, count, pkg)
	if err != nil {
		return err
	}
	deltas := Diff(base.Benchmarks, fresh)
	fmt.Print(FormatDeltas(deltas, threshold))
	if reg := Regressions(deltas, threshold); len(reg) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% vs %s", len(reg), 100*threshold, baselinePath)
	}
	return nil
}

func run(bench, benchtime string, count int, pkg, out string, appendOut bool) error {
	results, err := runBench(bench, benchtime, count, pkg)
	if err != nil {
		return err
	}
	rep := Report{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Bench:      bench,
		Benchtime:  benchtime,
		Benchmarks: results,
	}
	if appendOut && out != "-" {
		if prev, err := os.ReadFile(out); err == nil {
			var old Report
			if err := json.Unmarshal(prev, &old); err != nil {
				return fmt.Errorf("-append: existing %s is not a talus-bench report: %w", out, err)
			}
			rep.Benchmarks = Merge(old.Benchmarks, results)
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("talus-bench: %d benchmarks → %s\n", len(rep.Benchmarks), out)
	return nil
}

// Merge combines an existing report's rows with a fresh run's. Rows are
// keyed by (name, procs): a re-measured row replaces the old one in
// place, a new (name, procs) shape — e.g. the first GOMAXPROCS=4 pass —
// appends after the rows that were already there.
func Merge(old, fresh []Result) []Result {
	type key struct {
		name  string
		procs int
	}
	merged := make([]Result, len(old))
	copy(merged, old)
	at := make(map[key]int, len(old))
	for i, r := range merged {
		at[key{r.Name, r.Procs}] = i
	}
	for _, r := range fresh {
		if i, ok := at[key{r.Name, r.Procs}]; ok {
			merged[i] = r
		} else {
			at[key{r.Name, r.Procs}] = len(merged)
			merged = append(merged, r)
		}
	}
	return merged
}

// Parse extracts benchmark results from `go test -bench` output. With
// -count > 1, repeated measurements of one benchmark are averaged.
func Parse(output string) ([]Result, error) {
	byName := make(map[string]*Result)
	reps := make(map[string]int64)
	var order []string
	for _, line := range strings.Split(output, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		procs := 1
		if m[2] != "" {
			procs, _ = strconv.Atoi(m[2])
		}
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		ns, _ := strconv.ParseFloat(m[4], 64)
		r, ok := byName[name]
		if !ok {
			r = &Result{Name: name, Procs: procs}
			byName[name] = r
			order = append(order, name)
		}
		reps[name]++
		r.Iterations += iters
		r.NsPerOp += ns
		if m[5] != "" {
			b, _ := strconv.ParseFloat(m[5], 64)
			r.BPerOp += b
		}
		if m[6] != "" {
			a, _ := strconv.ParseInt(m[6], 10, 64)
			r.AllocsPerOp += a
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in go test output")
	}
	results := make([]Result, 0, len(order))
	for _, name := range order {
		r := byName[name]
		n := reps[name]
		r.Iterations /= n
		r.NsPerOp /= float64(n)
		r.BPerOp /= float64(n)
		r.AllocsPerOp /= n
		results = append(results, *r)
	}
	return results, nil
}
