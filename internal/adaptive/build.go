package adaptive

import (
	"talus/internal/cache"
	"talus/internal/core"
)

// Build constructs the full adaptive stack from names: a cache striped
// across numShards (≥ 1) locked shards with 2×numLogical shadow
// partitions (cache.BuildSharded), the Talus runtime over it, and the
// epoch-driven control loop over that. Every layer is goroutine-safe,
// so the result serves concurrent traffic end to end, and it
// reconfigures itself every cfg.EpochAccesses accesses. Every argument
// is used as given; callers apply their own defaults.
func Build(scheme string, capacityLines int64, assoc, numShards, numLogical int, policyName string, margin float64, cfg Config) (*Cache, error) {
	inner, err := cache.BuildSharded(scheme, capacityLines, assoc, numShards, 2*numLogical, policyName, numLogical, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sc, err := core.NewShadowedCache(inner, numLogical, margin, cfg.Seed^0xADA97)
	if err != nil {
		return nil, err
	}
	return New(sc, cfg)
}

// AppSpace offsets logical partition p's addresses into a disjoint
// address space via bits 48–55 (cores run separate programs; store
// tenants are separate namespaces; there is no sharing). Every feeder —
// live generators, trace replay, and the keyed store — applies the same
// offset, which is what lets a stream recorded raw (without the offset)
// replay identically.
func AppSpace(p int) uint64 { return uint64(p+1) << 48 }
