package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func tinyCfg(buf *bytes.Buffer) Config {
	return Config{Scale: ScaleTiny, Seed: 7, W: buf}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate experiment %s", n)
		}
		seen[n] = true
		if About(n) == "" {
			t.Fatalf("experiment %s lacks a description", n)
		}
	}
	if About("nope") != "" {
		t.Fatal("About of unknown experiment should be empty")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := Run("nope", Config{W: &bytes.Buffer{}}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

// TestAnalyticExperimentsGolden checks the paper's exact numbers in the
// analytic experiments' output.
func TestAnalyticExperimentsGolden(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	for _, name := range []string{"fig2", "fig3", "fig5", "fig6", "table1"} {
		if err := Run(name, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{
		"6.000",  // Talus at 4MB (figs 2, 3)
		"7.200",  // optimal bypassing at 4MB (fig 5)
		"0.333",  // rho (fig 3)
		"0.800",  // bypass rho (fig 5)
		"12.000", // LRU at 4MB
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing golden value %q", want)
		}
	}
}

// TestFig2RowsConsistent parses fig2's CSV and re-checks the arithmetic:
// partition APKI and MPKI must sum to the totals.
func TestFig2RowsConsistent(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := Config{Scale: ScaleTiny, Seed: 7, W: &buf, OutDir: dir}
	if err := Run("fig2", cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // header + 7 data rows
		t.Fatalf("fig2.csv has %d rows", len(rows))
	}
	// Talus rows: α + β must equal the total row.
	get := func(row int, col int) float64 {
		v, err := strconv.ParseFloat(rows[row][col], 64)
		if err != nil {
			t.Fatalf("row %d col %d: %v", row, col, err)
		}
		return v
	}
	// rows[5]=α, rows[6]=β, rows[7]=total; cols: 2=size 3=apki 4=mpki.
	for col := 2; col <= 4; col++ {
		if sum := get(5, col) + get(6, col); sum-get(7, col) > 1e-6 || get(7, col)-sum > 1e-6 {
			t.Errorf("fig2 col %d: α+β = %g, total = %g", col, sum, get(7, col))
		}
	}
}

// TestSimExperimentsTiny smoke-runs the simulation-backed experiments at
// benchmark scale and sanity-checks headline properties from the output
// CSVs.
func TestSimExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments are slow")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg := Config{Scale: ScaleTiny, Seed: 7, W: &buf, OutDir: dir}
	if err := Run("fig1", cfg); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, filepath.Join(dir, "fig1.csv"))
	// At the mid-plateau row, Talus must clearly beat LRU.
	mid := rows[len(rows)/2]
	lru, _ := strconv.ParseFloat(mid[1], 64)
	tal, _ := strconv.ParseFloat(mid[2], 64)
	if !(tal < lru) {
		t.Errorf("fig1 mid-plateau: Talus %g not below LRU %g", tal, lru)
	}
}

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows[1:] // drop header
}

func TestSweepSizesScales(t *testing.T) {
	if n := len(sweepSizes(Config{Scale: ScaleTiny}, 1, 10, 5, 9, 13)); n != 3 {
		t.Fatalf("tiny sweep has %d points", n)
	}
	if n := len(sweepSizes(Config{Scale: ScaleQuick}, 1, 10, 5, 9, 13)); n != 5 {
		t.Fatalf("quick sweep has %d points", n)
	}
	if n := len(sweepSizes(Config{}, 1, 10, 5, 9, 13)); n != 9 {
		t.Fatalf("default sweep has %d points", n)
	}
	if n := len(sweepSizes(Config{Scale: ScaleFull}, 1, 10, 5, 9, 13)); n != 13 {
		t.Fatalf("full sweep has %d points", n)
	}
	sizes := sweepSizes(Config{}, 2, 8, 3, 4, 5)
	if sizes[0] != 2 || sizes[len(sizes)-1] != 8 {
		t.Fatalf("sweep endpoints wrong: %v", sizes)
	}
}

func TestAccessBudgetScales(t *testing.T) {
	wT, mT := accessBudget(Config{Scale: ScaleTiny}, 1<<20)
	wQ, mQ := accessBudget(Config{Scale: ScaleQuick}, 1<<20)
	wD, mD := accessBudget(Config{}, 1<<20)
	wF, mF := accessBudget(Config{Scale: ScaleFull}, 1<<20)
	if !(wT <= wQ && wQ <= wD && wD <= wF) {
		t.Fatalf("warmups not monotone: %d %d %d %d", wT, wQ, wD, wF)
	}
	if !(mT <= mQ && mQ <= mD && mD <= mF) {
		t.Fatalf("measures not monotone: %d %d %d %d", mT, mQ, mD, mF)
	}
}
