// Forwarders for the names the benchmark module (bench/) compiles
// against. The builders live beside what they build (cache, adaptive);
// these stay only until the benchmark is re-pointed, and nothing in
// this module calls them.

package sim

import (
	"talus/internal/adaptive"
	"talus/internal/cache"
)

// BuildShardedCache is cache.BuildSharded.
func BuildShardedCache(scheme string, capacityLines int64, assoc, numShards, numPartitions int, policyName string, threads int, seed uint64) (*cache.ShardedCache, error) {
	return cache.BuildSharded(scheme, capacityLines, assoc, numShards, numPartitions, policyName, threads, seed)
}

// BuildAdaptiveCache is adaptive.Build.
func BuildAdaptiveCache(scheme string, capacityLines int64, assoc, numShards, numLogical int, policyName string, margin float64, cfg adaptive.Config) (*adaptive.Cache, error) {
	return adaptive.Build(scheme, capacityLines, assoc, numShards, numLogical, policyName, margin, cfg)
}

// AppSpace is adaptive.AppSpace.
func AppSpace(app int) uint64 { return adaptive.AppSpace(app) }
