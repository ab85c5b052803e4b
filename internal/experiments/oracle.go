// The monitor-vs-oracle error table: not a paper figure, but the
// ground-truth check behind every measured curve the figures use.

package experiments

import (
	"fmt"
	"strings"

	"talus/internal/curve"
	"talus/internal/oracle"
)

// oracleMB is the LLC size the error table is measured at: small enough
// that eight scenarios stay fast, large enough for the monitor bank's
// coarse arrays to engage.
const oracleMB = 0.25

// oracleAccesses returns the accesses fed to each scenario at the
// configured scale.
func oracleAccesses(cfg Config) int64 {
	switch cfg.Scale {
	case ScaleShort:
		return 96 << 10
	case ScaleTiny:
		return 192 << 10
	case ScaleQuick:
		return 384 << 10
	case ScaleFull:
		return 6 << 20
	default:
		return 1536 << 10
	}
}

// runOracle prints the per-scenario error table as markdown: for every
// scenario in oracle.Scenarios, the same access stream is fed to the
// monitor bank that serves requests (monitor.SlicedEpochMonitor) and to
// the exact stack-distance simulator, and each row reports how far the
// measured miss curve lands from ground truth (curve.Distance and the
// worst off-cliff miss-ratio gap). `make validate` writes it to
// ORACLE_errors.md; EXPERIMENTS.md's accuracy table is a pinned copy.
func runOracle(cfg Config) error {
	llc := int64(curve.MBToLines(oracleMB))
	accesses := oracleAccesses(cfg)
	table, err := oracle.ErrorTable(llc, accesses, cfg.Seed)
	if err != nil {
		return err
	}
	w := cfg.out()
	fmt.Fprintf(w, "# Monitor vs oracle\n\n")
	fmt.Fprintf(w, "LLC %d lines (%.3g MB), %d accesses per scenario, seed %d.\n",
		llc, oracleMB, accesses, cfg.Seed)
	fmt.Fprintf(w, "Distance is the normalized L1 curve gap in [0,1]; max-ratio-err is the\n")
	fmt.Fprintf(w, "worst absolute miss-ratio gap outside ±25%% cliff bands (see\n")
	fmt.Fprintf(w, "oracle.Comparison). Rates are the monitor bank's sampling rates.\n\n")
	fmt.Fprintf(w, "| scenario | seed | distance | max ratio err | rates (sub/fine/coarse) |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|\n")
	rows := [][]string{{"scenario", "seed", "distance", "max ratio err", "rates (sub/fine/coarse)"}}
	for _, c := range table {
		row := []string{c.Name, fmt.Sprint(cfg.Seed), fmt.Sprintf("%.4f", c.Distance),
			fmt.Sprintf("%.4f", c.MaxRatioErr), fmt.Sprintf("%.2g/%.2g/%.2g", c.Rates[0], c.Rates[1], c.Rates[2])}
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
		rows = append(rows, row)
	}
	return writeCSV(cfg, "oracle", rows)
}
