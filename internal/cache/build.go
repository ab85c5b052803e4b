// Construction by name: the scheme × policy switch every stack is built
// through — the serving layer's shards and the simulator's arrays alike.

package cache

import (
	"fmt"

	"talus/internal/hash"
	"talus/internal/partition"
	"talus/internal/policy"
)

// PolicyByName resolves a policy name to a Factory. threads matters only
// for thread-aware policies (TA-DRRIP).
func PolicyByName(name string, threads int) (policy.Factory, error) {
	switch name {
	case "LRU", "lru":
		return policy.LRUFactory, nil
	case "SRRIP", "srrip":
		return policy.SRRIPFactory, nil
	case "BRRIP", "brrip":
		return policy.BRRIPFactory, nil
	case "DRRIP", "drrip":
		return policy.DRRIPFactory, nil
	case "TA-DRRIP", "tadrrip", "ta-drrip":
		return policy.TADRRIPFactory(threads), nil
	case "DIP", "dip":
		return policy.DIPFactory, nil
	case "PDP", "pdp":
		return policy.PDPFactory, nil
	case "Random", "random":
		return policy.RandomFactory, nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q (valid: LRU, SRRIP, BRRIP, DRRIP, TA-DRRIP, DIP, PDP, Random)", name)
}

// Build constructs a partitioned cache per the named scheme: "none",
// "way", "set", "vantage" and "futility" build set-associative arrays;
// "ideal" builds the fully-associative per-partition LRU cache (the
// policy name is ignored for "ideal", which is inherently LRU). The
// result can stand alone or sit behind a ShardedCache shard lock.
func Build(scheme string, capacityLines int64, assoc, numPartitions int, policyName string, threads int, seed uint64) (Shard, error) {
	if scheme == "ideal" {
		return NewIdeal(capacityLines, numPartitions)
	}
	var sch partition.Scheme
	switch scheme {
	case "none", "":
		sch = partition.NewNone(numPartitions)
	case "way":
		sch = partition.NewWay(numPartitions)
	case "set":
		sch = partition.NewSet(numPartitions)
	case "vantage":
		sch = partition.NewVantage(numPartitions)
	case "futility":
		sch = partition.NewFutility(numPartitions)
	default:
		return nil, fmt.Errorf("cache: unknown scheme %q (valid: none, way, set, vantage, futility, ideal)", scheme)
	}
	factory, err := PolicyByName(policyName, threads)
	if err != nil {
		return nil, err
	}
	return NewSetAssoc(capacityLines, assoc, sch, factory, seed)
}

// BuildSharded constructs a goroutine-safe cache striped across
// numShards independently locked shards, each a Build of the same
// scheme and policy over its share of capacityLines (see ShardCapacity
// for the split) with a seed derived from seed, so shard contents are
// deterministic for a given configuration. The result implements
// core.PartitionedCache, so a core.ShadowedCache can sit on top of it.
func BuildSharded(scheme string, capacityLines int64, assoc, numShards, numPartitions int, policyName string, threads int, seed uint64) (*ShardedCache, error) {
	if numShards <= 0 {
		return nil, ErrBadShards
	}
	seeds := hash.NewSplitMix64(seed)
	routerSeed := seeds.Next()
	shardSeeds := make([]uint64, numShards)
	for i := range shardSeeds {
		shardSeeds[i] = seeds.Next()
	}
	return NewSharded(numShards, capacityLines, routerSeed,
		func(i int, capLines int64) (Shard, error) {
			return Build(scheme, capLines, assoc, numPartitions, policyName, threads, shardSeeds[i])
		})
}
