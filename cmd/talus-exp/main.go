// Command talus-exp regenerates the paper's tables and figures, and the
// monitor-vs-oracle error table behind them.
//
// Usage:
//
//	talus-exp -exp fig1                  # one experiment
//	talus-exp -exp all -scale quick      # everything, reduced scale
//	talus-exp -exp fig12 -scale full -out results/
//	talus-exp -exp oracle -scale quick > ORACLE_errors.md
//	talus-exp -list                      # show available experiments
//
// Each experiment prints the rows/series of the corresponding paper
// artifact to stdout; -out additionally writes CSVs suitable for
// plotting. Stdout depends only on the flags, never on -parallelism or
// the clock: the run time goes to stderr. A flag value out of range
// exits 2 and names the flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"talus/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes talus-exp and returns its exit code: 0 on success, 2 for
// a usage error (an unknown flag, a value out of range), 1 when an
// experiment fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("talus-exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "", "experiment to run (fig1..fig13, table1, table2, oracle, or all)")
		scale = fs.String("scale", "default", "run size: short, tiny, quick (~10x faster), default or full (paper-scale sweeps, slow)")
		out   = fs.String("out", "", "directory for CSV output (optional)")
		seed  = fs.Uint64("seed", 42, "random seed")
		list  = fs.Bool("list", false, "list experiments and exit")
		par   = fs.Int("parallelism", runtime.GOMAXPROCS(0), "worker pool size for sweeps and mixes, 0 = GOMAXPROCS (results are identical at any setting)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, name := range experiments.Names() {
			fmt.Fprintf(stdout, "  %-8s %s\n", name, experiments.About(name))
		}
		fmt.Fprintln(stdout, "  all      run everything in order")
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}
	sc, err := experiments.ParseScale(*scale)
	switch {
	case err != nil:
		return usageError(fs, fmt.Errorf("-scale %v", err))
	case *par < 0:
		return usageError(fs, fmt.Errorf("-parallelism %d: want a worker count, or 0 for GOMAXPROCS", *par))
	case fs.NArg() > 0:
		return usageError(fs, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	cfg := experiments.Config{
		Scale:       sc,
		OutDir:      *out,
		Seed:        *seed,
		Parallelism: *par,
		W:           stdout,
	}
	start := time.Now()
	if err := experiments.Run(*exp, cfg); err != nil {
		fmt.Fprintf(stderr, "talus-exp: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "\n[%s completed in %v]\n", *exp, time.Since(start).Round(time.Millisecond))
	return 0
}

// usageError reports a flag value run cannot use and returns exit code
// 2, as the flag package does for a value it cannot parse.
func usageError(fs *flag.FlagSet, err error) int {
	fmt.Fprintf(fs.Output(), "talus-exp: %v\n", err)
	fs.Usage()
	return 2
}
