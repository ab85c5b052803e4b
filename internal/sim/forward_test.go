package sim

import (
	"strings"
	"testing"

	"talus/internal/adaptive"
)

// TestBuildAdaptiveCacheIsLRUOnly: the forwarder keeps the benchmark's
// signature, but the adaptive stack has one array policy, so any other
// name is refused by name instead of being built and then mis-promised.
func TestBuildAdaptiveCacheIsLRUOnly(t *testing.T) {
	for _, policy := range []string{"SRRIP", "DRRIP", "PDP"} {
		if _, err := BuildAdaptiveCache("vantage", 4096, 16, 1, 2, policy, 0.05, adaptive.Config{Seed: 1}); err == nil || !strings.Contains(err.Error(), `"`+policy+`"`) {
			t.Errorf("BuildAdaptiveCache(%q) = %v, want an error naming it", policy, err)
		}
	}
	if _, err := BuildAdaptiveCache("vantage", 4096, 16, 1, 2, "LRU", 0.05, adaptive.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
}
