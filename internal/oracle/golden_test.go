package oracle

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"talus/internal/curve"
)

var updateGolden = flag.Bool("update", false, "rewrite golden oracle curves under testdata/golden")

// goldenAccesses is deliberately small and independent of -short: golden
// curves must be identical on every run.
const goldenAccesses = 64 * 1024

// TestGoldenOracleCurves pins the exact oracle curve of every generator
// scenario to a committed file. The stack simulator is deterministic, so
// any diff here means a generator's access stream or the simulator
// itself changed behavior — which must be a conscious decision
// (regenerate with `go test ./internal/oracle -run Golden -update`).
// JSON float64 encoding round-trips exactly (Go emits the shortest
// representation that parses back to the same bits), so the comparison
// is bit-exact, not tolerance-based.
func TestGoldenOracleCurves(t *testing.T) {
	for _, sc := range Scenarios(validationLLC, goldenAccesses) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			s := FromPattern(sc.Build(), sc.Accesses, 0x601D)
			c, err := s.Curve(Grid(4*validationLLC, 64), float64(sc.Accesses)/1000)
			if err != nil {
				t.Fatal(err)
			}
			got := c.Points()
			path := filepath.Join("testdata", "golden", sc.Name+".json")
			if *updateGolden {
				blob, err := json.MarshalIndent(got, "", "\t")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			var want []curve.Point
			if err := json.Unmarshal(blob, &want); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("curve has %d points, golden has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("point %d: got %v, golden %v", i, got[i], want[i])
				}
			}
		})
	}
}
