package talus_test

import (
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestServerLinksNoSimulator keeps the two products apart: the serving
// stack (talus-serve, the root package, the store, the HTTP front-end
// and the cluster tier) must not link the simulator, its workload
// clones, the figure registry, the exact-LRU oracle, or the
// optimal-bypassing comparator. Recording served traffic is a serving
// feature, so internal/trace is allowed.
func TestServerLinksNoSimulator(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(gobin, "list", "-f", `{{.ImportPath}} {{join .Deps " "}}`,
		"./cmd/talus-serve", ".", "./internal/store", "./internal/serve", "./internal/cluster").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	forbidden := regexp.MustCompile(`^talus/internal/(sim|workload|experiments|oracle|bypass)$`)
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 5 {
		t.Fatalf("go list printed %d packages, want 5:\n%s", len(lines), out)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, dep := range fields[1:] {
			if forbidden.MatchString(dep) {
				t.Errorf("%s depends on %s", fields[0], dep)
			}
		}
	}
}
