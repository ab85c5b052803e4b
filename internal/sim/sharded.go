// Sharded cache construction: the concurrent serving-side counterpart of
// BuildCache. Each shard is an independent BuildCache instance over a
// slice of the capacity, with a per-shard derived seed so shard contents
// are deterministic for a given configuration.

package sim

import (
	"talus/internal/cache"
	"talus/internal/core"
	"talus/internal/hash"
)

// BuildShardedCache constructs a goroutine-safe LLC striped across
// numShards independently locked shards, each a BuildCache of the same
// scheme/policy over its share of capacityLines (see cache.ShardCapacity
// for the split). The result implements core.PartitionedCache, so it
// can back a core.ShadowedCache directly: a Talus runtime over a sharded
// inner cache serves concurrent traffic end to end.
func BuildShardedCache(scheme string, capacityLines int64, assoc, numShards, numPartitions int, policyName string, threads int, seed uint64) (*cache.ShardedCache, error) {
	if numShards <= 0 {
		return nil, cache.ErrBadShards
	}
	seeds := hash.NewSplitMix64(seed)
	routerSeed := seeds.Next()
	shardSeeds := make([]uint64, numShards)
	for i := range shardSeeds {
		shardSeeds[i] = seeds.Next()
	}
	return cache.NewSharded(numShards, capacityLines, routerSeed,
		func(i int, capLines int64) (cache.Shard, error) {
			return buildArray(scheme, capLines, assoc, numPartitions, policyName, threads, shardSeeds[i])
		})
}

// Compile-time proof that the sharded cache slots in wherever the Talus
// runtime expects a partitioned cache.
var _ core.PartitionedCache = (*cache.ShardedCache)(nil)
