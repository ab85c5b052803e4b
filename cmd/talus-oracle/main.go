// Command talus-oracle runs the monitor-vs-oracle validation suite and
// prints the per-generator error table: for every scenario in
// oracle.Scenarios, the same access stream is fed to the monitor bank
// that serves requests (monitor.SlicedEpochMonitor) and to the exact
// stack-distance simulator, and the table reports how
// far the measured miss curve lands from ground truth (curve.Distance
// and the worst off-cliff miss-ratio gap). CI's validate lane runs this
// to publish ORACLE_errors.md; EXPERIMENTS.md's accuracy table is a
// pinned copy.
//
// Usage:
//
//	talus-oracle [-mb 0.25] [-accesses 1572864] [-seeds 42] [-o table.md]
//
// Multiple comma-separated seeds rerun the suite per seed so the table
// shows spread, not a single draw.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"talus/internal/curve"
	"talus/internal/oracle"
)

func main() {
	var (
		mb       = flag.Float64("mb", 0.25, "LLC capacity in MB")
		accesses = flag.Int64("accesses", 1536*1024, "accesses per scenario")
		seeds    = flag.String("seeds", "42", "comma-separated seeds (one suite run each)")
		out      = flag.String("o", "", "also write the table here")
	)
	flag.Parse()
	if err := run(*mb, *accesses, *seeds, *out); err != nil {
		fmt.Fprintf(os.Stderr, "talus-oracle: %v\n", err)
		os.Exit(1)
	}
}

func run(mb float64, accesses int64, seedList, out string) error {
	llc := int64(curve.MBToLines(mb))
	var seeds []uint64
	for _, s := range strings.Split(seedList, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", s)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return fmt.Errorf("-seeds named no seeds")
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Monitor vs oracle\n\n")
	fmt.Fprintf(&b, "LLC %d lines (%.3g MB), %d accesses per scenario, %d seed(s).\n",
		llc, mb, accesses, len(seeds))
	fmt.Fprintf(&b, "Distance is the normalized L1 curve gap in [0,1]; max-ratio-err is the\n")
	fmt.Fprintf(&b, "worst absolute miss-ratio gap outside ±25%% cliff bands (see\n")
	fmt.Fprintf(&b, "oracle.Comparison). Rates are the monitor bank's sampling rates.\n\n")
	fmt.Fprintf(&b, "| scenario | seed | distance | max ratio err | rates (sub/fine/coarse) |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|\n")
	for _, seed := range seeds {
		table, err := oracle.ErrorTable(llc, accesses, seed)
		if err != nil {
			return err
		}
		for _, c := range table {
			fmt.Fprintf(&b, "| %s | %d | %.4f | %.4f | %.2g/%.2g/%.2g |\n",
				c.Name, seed, c.Distance, c.MaxRatioErr, c.Rates[0], c.Rates[1], c.Rates[2])
		}
	}
	fmt.Print(b.String())
	if out != "" {
		return os.WriteFile(out, []byte(b.String()), 0o644)
	}
	return nil
}
