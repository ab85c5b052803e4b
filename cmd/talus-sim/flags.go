// Flag-value parsing and the run-kind check, separated from main so
// they are unit-testable.

package main

import (
	"fmt"
	"strconv"
	"strings"
)

// adaptiveOnly and mixOnly name the flags only one run kind reads.
var (
	adaptiveOnly = []string{"alloc", "epoch", "accesses", "shards", "tail", "weights"}
	mixOnly      = []string{"mode", "work"}
)

// checkRunKind refuses an explicitly set flag (set holds the names
// flag.Visit reported) that the chosen run kind does not read: a table
// printed as if -weights or -mode had applied is worse than an error.
func checkRunKind(adaptive bool, set map[string]bool) error {
	wrong, reads, kind := adaptiveOnly, "-adaptive runs", "a cycle-driven mix run (no -adaptive)"
	if adaptive {
		wrong, reads, kind = mixOnly, "cycle-driven mix runs", "an -adaptive run"
	}
	for _, name := range wrong {
		if set[name] {
			return fmt.Errorf("-%s applies only to %s; this is %s", name, reads, kind)
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
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-weights entry %q: want a non-negative number", p)
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
