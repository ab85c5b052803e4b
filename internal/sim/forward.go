// Forwarders for the names the benchmark module (bench/) compiles
// against. The builders live beside what they build (cache, adaptive);
// these stay only until the benchmark is re-pointed, and nothing in
// this module calls them.

package sim

import (
	"fmt"

	"talus/internal/adaptive"
	"talus/internal/cache"
)

// BuildShardedCache is cache.BuildSharded.
func BuildShardedCache(scheme string, capacityLines int64, assoc, numShards, numPartitions int, policyName string, threads int, seed uint64) (*cache.ShardedCache, error) {
	return cache.BuildSharded(scheme, capacityLines, assoc, numShards, numPartitions, policyName, threads, seed)
}

// BuildAdaptiveCache is adaptive.Build. The adaptive stack's arrays are
// always LRU, so policyName must be "LRU"; any other name is refused.
func BuildAdaptiveCache(scheme string, capacityLines int64, assoc, numShards, numLogical int, policyName string, margin float64, cfg adaptive.Config) (*adaptive.Cache, error) {
	if policyName != "LRU" {
		return nil, fmt.Errorf("sim: the adaptive stack runs LRU arrays only (its monitor is an LRU stack), not %q", policyName)
	}
	return adaptive.Build(scheme, capacityLines, assoc, numShards, numLogical, margin, cfg)
}

// AppSpace is adaptive.AppSpace.
func AppSpace(app int) uint64 { return adaptive.AppSpace(app) }
