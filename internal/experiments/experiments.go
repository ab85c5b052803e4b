package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"text/tabwriter"

	"talus/internal/curve"
	"talus/internal/sim"
)

// parallelFor runs fn(i) for i in [0, n) on the experiment's worker pool
// (sim.ParallelFor bounded by Config.Parallelism). Simulation runs are
// independent and deterministic per index, so results land in
// preallocated slots and output never depends on scheduling.
func (c Config) parallelFor(n int, fn func(i int)) {
	sim.ParallelFor(n, sim.Workers(c.Parallelism), fn)
}

// Scale sets how large an experiment's sweeps, mixes and access counts
// are. The zero value is the default scale; each step down shrinks the
// run, and numbers below Quick are execution smoke, not results.
type Scale int

const (
	// ScaleShort is the CI smoke scale (bench_test.go under -short):
	// minimum sweep points, two mixes, and a single-lap fixed-work floor
	// in the fairness study, so `-bench . -benchtime 1x -short` finishes
	// in well under a minute.
	ScaleShort Scale = iota - 3
	// ScaleTiny is the Go-benchmark scale (bench_test.go), where each
	// figure must regenerate in seconds.
	ScaleTiny
	// ScaleQuick shrinks sweeps and access counts ~10× for smoke runs.
	ScaleQuick
	// ScaleDefault is the zero value.
	ScaleDefault
	// ScaleFull expands to paper-scale sweeps.
	ScaleFull
)

var scaleNames = []string{"short", "tiny", "quick", "default", "full"}

// ParseScale maps a scale's name to its value.
func ParseScale(name string) (Scale, error) {
	for i, n := range scaleNames {
		if n == name {
			return ScaleShort + Scale(i), nil
		}
	}
	return 0, fmt.Errorf("%q: want one of %v", name, scaleNames)
}

// Config controls experiment scale and output.
type Config struct {
	// Scale sizes the runs; the zero value is ScaleDefault.
	Scale Scale
	// OutDir, when non-empty, receives one CSV per experiment.
	OutDir string
	// Seed makes runs reproducible; 0 is a valid seed.
	Seed uint64
	// Parallelism bounds the worker pool experiments fan sweeps and
	// mixes across: 0 uses GOMAXPROCS, 1 runs sequentially. Results are
	// identical at any setting.
	Parallelism int
	// W receives the human-readable tables (default os.Stdout).
	W io.Writer
}

func (c Config) out() io.Writer {
	if c.W == nil {
		return os.Stdout
	}
	return c.W
}

// An experiment regenerates one paper artifact.
type experiment struct {
	name  string
	about string
	run   func(Config) error
}

var registry = []experiment{
	{"fig1", "libquantum MPKI vs LLC size: LRU vs Talus (cliff removal)", runFig1},
	{"fig2", "worked example: shadow-partition decomposition at 2/5/4 MB", runFig2},
	{"fig3", "example miss curve, convex hull, and the Talus point at 4 MB", runFig3},
	{"fig5", "optimal bypassing decomposition at 4 MB", runFig5},
	{"fig6", "Talus (hull) vs optimal bypassing vs original curve", runFig6},
	{"fig8", "Talus on Vantage/way/ideal partitioning (libquantum, gobmk)", runFig8},
	{"fig9", "Talus on SRRIP via 64-point monitors (libquantum, mcf)", runFig9},
	{"fig10", "MPKI vs size, 6 apps × {Talus+V/LRU, PDP, DRRIP, SRRIP, LRU}", runFig10},
	{"fig11", "IPC over LRU at 1 MB and 8 MB, all 29 apps + gmean", runFig11},
	{"fig12", "8-core mixes: weighted & harmonic speedup quantiles", runFig12},
	{"fig13", "fairness case studies: 8 copies, exec time + CoV of IPC", runFig13},
	{"table1", "simulated system configuration (Table I)", runTable1},
	{"table2", "gmean IPC gains over LRU per policy (§VII-C)", runTable2},
	{"oracle", "monitor-measured vs exact-LRU miss curves, 8 generators (markdown)", runOracle},
}

// Names lists experiment ids in run order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// About returns an experiment's one-line description.
func About(name string) string {
	for _, e := range registry {
		if e.name == name {
			return e.about
		}
	}
	return ""
}

// Run executes one experiment ("all" runs everything in order).
func Run(name string, cfg Config) error {
	if name == "all" {
		for _, e := range registry {
			fmt.Fprintf(cfg.out(), "\n=== %s: %s ===\n", e.name, e.about)
			if err := e.run(cfg); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
		return nil
	}
	for _, e := range registry {
		if e.name == name {
			return e.run(cfg)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}

// --- output helpers ------------------------------------------------------

// table renders aligned columns to the config's writer.
type table struct {
	tw  *tabwriter.Writer
	csv [][]string
}

func newTable(cfg Config, headers ...string) *table {
	t := &table{tw: tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)}
	t.row(toAny(headers)...)
	return t
}

func toAny(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

func (t *table) row(cells ...any) {
	strs := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			strs[i] = strconv.FormatFloat(v, 'f', 3, 64)
		default:
			strs[i] = fmt.Sprint(c)
		}
	}
	t.csv = append(t.csv, strs)
	fmt.Fprintln(t.tw, join(strs, "\t"))
}

func join(ss []string, sep string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += sep
		}
		out += s
	}
	return out
}

// flush renders the table and, when OutDir is set, writes name.csv.
func (t *table) flush(cfg Config, name string) error {
	if err := t.tw.Flush(); err != nil {
		return err
	}
	return writeCSV(cfg, name, t.csv)
}

// writeCSV writes rows to OutDir/name.csv; it does nothing when OutDir
// is empty.
func writeCSV(cfg Config, name string, rows [][]string) error {
	if cfg.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.OutDir, name+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- shared sizing helpers ------------------------------------------------

// mbSizes converts MB values to line counts.
func mbSizes(mbs []float64) []int64 {
	out := make([]int64, len(mbs))
	for i, m := range mbs {
		out[i] = int64(curve.MBToLines(m))
	}
	return out
}

// sweepSizes picks a size grid between lo and hi MB: Quick uses few
// points, Tiny fewer still, Full many.
func sweepSizes(cfg Config, lo, hi float64, quickN, defN, fullN int) []float64 {
	n := defN
	switch cfg.Scale {
	case ScaleShort:
		n = 2
	case ScaleTiny:
		n = 3
	case ScaleQuick:
		n = quickN
	case ScaleFull:
		n = fullN
	}
	if n < 2 {
		n = 2
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// accessBudget returns (warmup, measure) access counts for a cache of
// `lines` lines at the configured scale.
func accessBudget(cfg Config, lines int64) (int64, int64) {
	warm := 2 * lines
	meas := 3 * lines
	floorW, floorM := int64(1<<19), int64(1<<20)
	switch cfg.Scale {
	case ScaleShort:
		warm, meas = lines/2, lines
		floorW, floorM = 1<<16, 1<<17
	case ScaleTiny:
		warm, meas = lines, lines
		floorW, floorM = 1<<17, 1<<18
	case ScaleQuick:
		warm, meas = lines, 2*lines
		floorW, floorM = 1<<18, 1<<19
	case ScaleFull:
		warm, meas = 3*lines, 6*lines
		floorM = 1 << 22
	}
	if warm < floorW {
		warm = floorW
	}
	if meas < floorM {
		meas = floorM
	}
	return warm, meas
}
