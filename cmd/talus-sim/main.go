// Command talus-sim is the simulator's front end. Each run kind is a
// subcommand with its own flag set, so a flag a run kind does not read
// is an unknown flag:
//
//	talus-sim mix      -apps mcf,lbm,omnetpp,xalancbmk -mode talus-hill -mb 4
//	talus-sim adaptive -apps mcf,lbm -mb 2 -epoch 131072 -weights 4,1
//	talus-sim adaptive -trace mix.trc -mb 8   # exact replay of a recording
//	talus-sim sweep    -app libquantum -talus -min 1 -max 8 -points 4
//	talus-sim record   -apps mcf,lbm -o mix.trc -n 4194304
//	talus-sim stat     -trace mix.trc
//	talus-sim import   -format champsim -i app.champsim.trace -o app.trc
//
// mix is the cycle-driven CMP simulation: per-app IPC, MPKI and
// speedups over the unpartitioned-LRU baseline. adaptive is the online
// control loop (monitor → hull → hill climbing at a fixed -epoch, over
// LRU arrays) driven purely by the access stream. sweep prints one
// clone's miss curve under a policy and scheme, optionally with Talus.
// record, stat and import write and inspect binary address traces
// (internal/trace); a recording replays through adaptive -trace, or as
// a "trace:<path>" app anywhere -apps is read.
//
// A flag value out of range exits 2 and names the flag, as a flag the
// subcommand does not define does.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// A command is one subcommand: setup declares its flags on fs and
// returns the run that reads them after parsing.
type command struct {
	name, about string
	setup       func(fs *flag.FlagSet) func(w io.Writer) error
}

var commands = []command{
	{"mix", "one multi-programmed mix vs the LRU baseline (cycle-driven)", setupMix},
	{"adaptive", "the online control loop over live generators or a recorded trace", setupAdaptive},
	{"sweep", "one clone's miss curve over a range of LLC sizes", setupSweep},
	{"record", "record workloads' interleaved stream to a trace", setupRecord},
	{"stat", "print a trace's header and per-partition shape", setupStat},
	{"import", "convert a ChampSim or text trace to the native format", setupImport},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one subcommand and returns the process exit code: 0 on
// success, 2 for a usage error (unknown subcommand or flag, a value out
// of range), 1 when the run itself fails.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	name := args[0]
	if name == "-h" || name == "-help" || name == "--help" || name == "help" {
		usage(stdout)
		return 0
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		fs := flag.NewFlagSet("talus-sim "+name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		runFn := c.setup(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		if fs.NArg() > 0 {
			fmt.Fprintf(stderr, "talus-sim %s: unexpected argument %q\n", name, fs.Arg(0))
			fs.Usage()
			return 2
		}
		err := runFn(stdout)
		if err == nil {
			return 0
		}
		fmt.Fprintf(stderr, "talus-sim %s: %v\n", name, err)
		var ue usageError
		if errors.As(err, &ue) {
			fs.Usage()
			return 2
		}
		return 1
	}
	fmt.Fprintf(stderr, "talus-sim: unknown subcommand %q\n\n", name)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: talus-sim <subcommand> [flags]   (talus-sim <subcommand> -h lists its flags)")
	fmt.Fprintln(w)
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.about)
	}
}

// usageError is a flag value the run cannot use: run prints it with the
// subcommand's usage and exits 2, as the flag package does for a value
// it cannot parse.
type usageError struct{ error }

// A rule is one range condition on one flag.
type rule struct {
	ok   bool
	flag string
	val  any
	want string
}

// check is the front end's one range check: the first rule that does
// not hold becomes a usage error naming its flag and value.
func check(rules ...rule) error {
	for _, r := range rules {
		if !r.ok {
			return usageError{fmt.Errorf("-%s %v: want %s", r.flag, r.val, r.want)}
		}
	}
	return nil
}

// parseWeights parses the -weights flag: comma-separated per-app
// weights in app order ("4,1,1,1"). Empty means uniform.
func parseWeights(s string) ([]float64, error) {
	parts := splitList(s)
	if len(parts) == 0 {
		return nil, nil
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		w, err := strconv.ParseFloat(p, 64)
		if err != nil || !(w >= 0) {
			return nil, usageError{fmt.Errorf("-weights entry %q: want a non-negative number", p)}
		}
		out[i] = w
	}
	return out, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
