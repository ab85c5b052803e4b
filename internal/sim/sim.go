package sim

import (
	"fmt"

	"talus/internal/cache"
	"talus/internal/core"
	"talus/internal/partition"
	"talus/internal/policy"
	"talus/internal/workload"
)

// Table I parameters used by the analytic model and default experiment
// configurations.
const (
	MemLatency   = 200 // cycles to main memory
	DefaultAssoc = 32  // 32-way set-associative LLC
	CoresMP      = 8   // multi-programmed setup core count
	LLCPerCoreMB = 1   // 1 MB of LLC per core
)

// IPC evaluates the analytic core model for an app at a given MPKI.
func IPC(spec workload.Spec, mpki float64) float64 {
	cpi := CPI(spec, mpki)
	return 1 / cpi
}

// CPI evaluates the analytic core model's cycles-per-instruction.
func CPI(spec workload.Spec, mpki float64) float64 {
	return spec.CPIBase + mpki/1000*MemLatency/spec.MLP
}

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
	return nil, fmt.Errorf("sim: unknown policy %q (valid: LRU, SRRIP, BRRIP, DRRIP, TA-DRRIP, DIP, PDP, Random)", name)
}

// defaultMonitorPoints is the paper's per-size monitor count for
// profiling a policy without the stack property (§VI-C: 64 points).
const defaultMonitorPoints = 64

// replacesLRU reports whether BuildCache(scheme, …, policyName, …) evicts
// in LRU order, so that one LRU stack yields its whole miss curve.
func replacesLRU(scheme, policyName string) bool {
	return scheme == "ideal" || policyName == "LRU" || policyName == "lru"
}

// BuildCache constructs a partitioned cache per the named scheme:
// "none", "way", "set", "vantage" build set-associative arrays;
// "ideal" builds the fully-associative per-partition LRU cache (the
// policy name is ignored for "ideal", which is inherently LRU).
func BuildCache(scheme string, capacityLines int64, assoc int, numPartitions int, policyName string, threads int, seed uint64) (core.PartitionedCache, error) {
	return buildArray(scheme, capacityLines, assoc, numPartitions, policyName, threads, seed)
}

// buildArray is BuildCache typed as what it really builds: an array that
// can also sit behind a ShardedCache shard lock.
func buildArray(scheme string, capacityLines int64, assoc int, numPartitions int, policyName string, threads int, seed uint64) (cache.Shard, error) {
	if scheme == "ideal" {
		return cache.NewIdeal(capacityLines, numPartitions)
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
		return nil, fmt.Errorf("sim: unknown scheme %q (valid: none, way, set, vantage, futility, ideal)", scheme)
	}
	factory, err := PolicyByName(policyName, threads)
	if err != nil {
		return nil, err
	}
	return cache.NewSetAssoc(capacityLines, assoc, sch, factory, seed)
}
