// Sharded concurrent cache: stripes a partitioned cache across N
// independently locked shards so many goroutines can access it at once.
//
// Sharding splits the line-address space pseudo-randomly with an H3 hash
// (the same family the Talus sampler uses), so each shard of capacity C/N
// serves a statistically self-similar 1/N slice of the access stream.
// By the paper's Theorem 4 that slice behaves like the full stream on a
// cache of size (C/N)/(1/N) = C, which is what makes hash-sharding a
// faithful way to scale the simulated LLC across cores: aggregate hit
// ratios track the unsharded cache, and per-shard order is all that
// matters for correctness, because distinct shards never share lines.
//
// The shard backing is anything implementing Shard (SetAssoc, Ideal, or
// any core.PartitionedCache — the interfaces are structurally identical).
// Each shard is guarded by its own mutex.

package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"talus/internal/hash"
)

// Shard is the per-shard cache contract: structurally identical to
// core.PartitionedCache, restated here so the cache package does not
// depend on core, plus the Stats every backing keeps (the sharded cache
// counts nothing itself). Implementations need not be goroutine-safe;
// the ShardedCache serializes all calls into a shard behind its lock.
type Shard interface {
	Access(addr uint64, part int) bool
	Stats() Stats
	SetPartitionSizes(sizes []int64) error
	NumPartitions() int
	Capacity() int64
	PartitionableCapacity() int64
	Granule() int64
}

// ShardedCache stripes a partitioned cache across N shards keyed by an H3
// hash of the line address, with per-shard locking. It implements
// core.PartitionedCache (so a core.ShadowedCache can sit on top of it, and
// the Talus runtime becomes goroutine-safe end to end). All methods are
// safe for concurrent use.
type ShardedCache struct {
	router *hash.H3
	shards []shardSlot
}

// shardSlot pairs one shard with its lock. The pad keeps hot per-shard
// state on distinct cache lines so shards do not false-share under
// concurrent traffic. probe is the backing itself when it is a
// SharedProber (captured once, in NewSharded): Access then tries the
// lock-free hit path first.
type shardSlot struct {
	mu    sync.Mutex
	c     Shard
	probe SharedProber
	_     [64]byte
}

// SharedProber is implemented by shard backings (SetAssoc) that can
// resolve cache hits without the shard lock. AccessShared reports
// (hit, ok): ok=false means the probe could not decide (the backing's
// policy or scheme rules probing out, a mutation is in flight, or the
// line is not resident) and the caller must fall back to locked Access,
// which re-runs the access from scratch.
type SharedProber interface {
	AccessShared(addr uint64, part int) (hit, ok bool)
}

// Errors returned by NewSharded.
var (
	ErrBadShards     = errors.New("cache: shard count must be positive")
	ErrShardMismatch = errors.New("cache: shards disagree on partition count")
)

// ShardCapacity returns the capacity of shard i when totalLines is spread
// over nShards: an even split with the remainder going to the first
// shards. NewSharded's build callback receives exactly these values;
// SetPartitionSizes splits partition targets against the shards'
// resulting partitionable capacities (see splitTargets), so targets fit
// shard budgets whenever they fit in total.
func ShardCapacity(totalLines int64, nShards, i int) int64 {
	base := totalLines / int64(nShards)
	if int64(i) < totalLines%int64(nShards) {
		base++
	}
	return base
}

// NewSharded builds a sharded cache of approximately totalLines lines:
// build is called once per shard with the shard index and that shard's
// capacity (ShardCapacity's split) and returns the backing cache. The
// router hash is drawn deterministically from seed. All shards must
// expose the same number of partitions.
func NewSharded(nShards int, totalLines int64, seed uint64, build func(shard int, capacityLines int64) (Shard, error)) (*ShardedCache, error) {
	if nShards <= 0 {
		return nil, ErrBadShards
	}
	if totalLines <= 0 {
		return nil, ErrBadGeometry
	}
	s := &ShardedCache{
		router: hash.NewH3(seed^0x54A6DED, 64),
		shards: make([]shardSlot, nShards),
	}
	for i := range s.shards {
		c, err := build(i, ShardCapacity(totalLines, nShards, i))
		if err != nil {
			return nil, fmt.Errorf("cache: building shard %d: %w", i, err)
		}
		if i > 0 && c.NumPartitions() != s.shards[0].c.NumPartitions() {
			return nil, ErrShardMismatch
		}
		s.shards[i].c = c
		s.shards[i].probe, _ = c.(SharedProber)
	}
	return s, nil
}

// shardOf maps a line address to its shard by multiply-shift reduction of
// the router hash (uniform and deterministic for a given seed).
func (s *ShardedCache) shardOf(addr uint64) int {
	if len(s.shards) == 1 {
		return 0
	}
	return hash.Reduce(s.router.Hash(addr), len(s.shards))
}

// NumShards returns the number of shards.
func (s *ShardedCache) NumShards() int { return len(s.shards) }

// Shard returns shard i's backing cache for post-run inspection. Callers
// must not touch it while other goroutines are accessing the cache.
func (s *ShardedCache) Shard(i int) Shard { return s.shards[i].c }

// Access performs one access for the given partition on the owning shard
// and reports whether it hit. Safe for concurrent use.
func (s *ShardedCache) Access(addr uint64, part int) bool {
	sh := &s.shards[s.shardOf(addr)]
	if sh.probe != nil {
		if hit, ok := sh.probe.AccessShared(addr, part); ok {
			return hit
		}
	}
	sh.mu.Lock()
	hit := sh.c.Access(addr, part)
	sh.mu.Unlock()
	return hit
}

// splitTargets computes the per-shard target matrix for SetPartitionSizes:
// out[i][p] is shard i's slice of partition p's target. Each partition's
// base share is apportioned proportionally to the shards' budgets
// (⌊total·bᵢ/B⌋, exact via 128-bit intermediates — shard capacities can
// differ by more than a line once SetAssoc rounds each shard to a set
// boundary, so an even split would overdraw the small shards), and the
// under-allocation left by the floors (< one line per shard) is placed
// greedily on the shard with the most budget remaining. Feasible by
// construction: the floor of a proportional share never exceeds a
// shard's budget while totals fit the summed budgets, and at every
// greedy step the integer slacks sum to B minus lines placed > 0, so
// some shard has a spare line. Deterministic: ties break toward the
// lowest shard index. With an all-zero budget vector (degenerate shards)
// it falls back to an even split.
func splitTargets(sizes, budgets []int64) [][]int64 {
	n := len(budgets)
	out := make([][]int64, n)
	slack := make([]int64, n)
	var sumB int64
	for i := range out {
		out[i] = make([]int64, len(sizes))
		slack[i] = budgets[i]
		sumB += budgets[i]
	}
	for p, total := range sizes {
		var placed int64
		for i := 0; i < n; i++ {
			var t int64
			if sumB > 0 {
				hi, lo := bits.Mul64(uint64(total), uint64(budgets[i]))
				q, _ := bits.Div64(hi, lo, uint64(sumB))
				t = int64(q)
			} else {
				t = total / int64(n)
			}
			out[i][p] = t
			slack[i] -= t
			placed += t
		}
		for ; placed < total; placed++ {
			best := 0
			for i := 1; i < n; i++ {
				if slack[i] > slack[best] {
					best = i
				}
			}
			out[best][p]++
			slack[best]--
		}
	}
	return out
}

// SetPartitionSizes programs per-partition target sizes in lines,
// splitting each partition's target across shards with splitTargets
// against the shards' partitionable capacities. Safe for concurrent use,
// though reconfiguring while traffic is in flight means individual
// accesses see either the old or the new sizes.
func (s *ShardedCache) SetPartitionSizes(sizes []int64) error {
	for p, size := range sizes {
		if size < 0 {
			return fmt.Errorf("cache: partition %d size %d is negative", p, size)
		}
	}
	budgets := make([]int64, len(s.shards))
	for i := range s.shards {
		budgets[i] = s.shards[i].c.PartitionableCapacity()
	}
	targets := splitTargets(sizes, budgets)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := sh.c.SetPartitionSizes(targets[i])
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("cache: shard %d: %w", i, err)
		}
	}
	return nil
}

// NumPartitions returns the per-shard partition count (all shards agree).
func (s *ShardedCache) NumPartitions() int { return s.shards[0].c.NumPartitions() }

// Capacity returns the summed capacity of all shards.
func (s *ShardedCache) Capacity() int64 {
	var total int64
	for i := range s.shards {
		total += s.shards[i].c.Capacity()
	}
	return total
}

// PartitionableCapacity returns the summed partitionable capacity.
func (s *ShardedCache) PartitionableCapacity() int64 {
	var total int64
	for i := range s.shards {
		total += s.shards[i].c.PartitionableCapacity()
	}
	return total
}

// Granule returns the coarsest shard granule times the shard count — a
// conservative allocator step (one granule's worth of lines per shard).
// SetPartitionSizes's proportional split does not guarantee each shard's
// slice lands on that shard's granule; the shard's own scheme rounds
// internally (as Way and Set partitioning do).
func (s *ShardedCache) Granule() int64 {
	var g int64 = 1
	for i := range s.shards {
		if sg := s.shards[i].c.Granule(); sg > g {
			g = sg
		}
	}
	return g * int64(len(s.shards))
}

// Stats returns the shards' access counts summed. Safe for concurrent
// use: each shard is read under its lock, so under traffic the result
// is a per-shard snapshot of everything but probe hits still landing.
func (s *ShardedCache) Stats() Stats {
	var total Stats
	for i := range s.shards {
		total = total.plus(s.ShardStats(i))
	}
	return total
}

// SetEvictHook forwards fn to every shard that implements EvictNotifier,
// under each shard's lock, and reports whether all shards accepted it —
// partial coverage would silently leak values, so a false return means
// the hook is not installed usably (callers should treat it as
// unsupported). The hook fires on the accessing goroutine with the
// owning shard's lock held; it must not re-enter the cache. Implements
// EvictNotifier.
func (s *ShardedCache) SetEvictHook(fn func(part int, addr uint64)) bool {
	ok := true
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n, supported := sh.c.(EvictNotifier)
		if supported {
			supported = n.SetEvictHook(fn)
		}
		sh.mu.Unlock()
		if !supported {
			ok = false
		}
	}
	return ok
}

// Invalidate routes the invalidation to addr's owning shard under its
// lock and reports whether a resident line was dropped. Shards not
// implementing Invalidator report false. Safe for concurrent use.
// Implements Invalidator.
func (s *ShardedCache) Invalidate(addr uint64, part int) bool {
	sh := &s.shards[s.shardOf(addr)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	inv, ok := sh.c.(Invalidator)
	if !ok {
		return false
	}
	return inv.Invalidate(addr, part)
}

// ShardStats returns shard i's access counts.
func (s *ShardedCache) ShardStats(i int) Stats {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.Stats()
}

// String describes the sharded configuration.
func (s *ShardedCache) String() string {
	return fmt.Sprintf("sharded[%d] (%d lines)", len(s.shards), s.Capacity())
}
