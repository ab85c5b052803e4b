package cache

import (
	"errors"
	"fmt"

	"talus/internal/hash"
	"talus/internal/partition"
	"talus/internal/policy"
)

// Stats aggregates access outcomes per partition and in total.
type Stats struct {
	Accesses int64
	Hits     int64
	Misses   int64
	Bypasses int64 // misses that did not allocate (policy bypassed or no candidates)
}

// HitRate returns Hits/Accesses, or 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

func (s Stats) plus(o Stats) Stats {
	return Stats{s.Accesses + o.Accesses, s.Hits + o.Hits, s.Misses + o.Misses, s.Bypasses + o.Bypasses}
}

// counters is what an array stores per partition. They move only inside
// Access, covered by whatever serializes Access. Accesses and the
// array-wide total are not stored — every access is a hit or a miss, so
// both are sums computed when read.
type counters struct {
	hits, misses, bypasses int64
}

// stats reads the counters; like Access, it must not run beside Access.
func (k *counters) stats() Stats {
	return Stats{Accesses: k.hits + k.misses, Hits: k.hits, Misses: k.misses, Bypasses: k.bypasses}
}

func sumStats(perPart []counters) Stats {
	var total Stats
	for i := range perPart {
		total = total.plus(perPart[i].stats())
	}
	return total
}

// SetAssoc is a hash-indexed, set-associative, write-allocate cache array
// with a partitioning scheme restricting victim choice and a replacement
// policy ranking victims. It implements core.PartitionedCache.
//
// Every method needs external serialization — a ShardedCache's shard
// lock, or a single goroutine.
type SetAssoc struct {
	sets  int
	assoc int
	tags  []uint64
	owner []int32 // per line: owning partition, -1 = invalid

	pol    policy.Policy
	scheme partition.Scheme
	idx    *hash.H3
	evict  func(part int, addr uint64) // eviction hook, nil when unset

	perPart []counters

	wayBuf  []int
	lineBuf []int
}

// Errors returned by the cache constructors.
var (
	ErrBadGeometry = errors.New("cache: capacity, associativity and partitions must be positive")
)

// NewSetAssoc builds a cache of approximately capacityLines lines
// organized as capacity/assoc sets of assoc ways (capacity is rounded
// down to a multiple of assoc; at least one set). The scheme is configured
// for the resulting geometry; the policy is built from factory.
func NewSetAssoc(capacityLines int64, assoc int, scheme partition.Scheme, factory policy.Factory, seed uint64) (*SetAssoc, error) {
	if capacityLines <= 0 || assoc <= 0 || scheme == nil || factory == nil {
		return nil, ErrBadGeometry
	}
	sets := int(capacityLines) / assoc
	if sets < 1 {
		sets = 1
	}
	if err := scheme.Configure(sets, assoc); err != nil {
		return nil, err
	}
	n := sets * assoc
	c := &SetAssoc{
		sets:    sets,
		assoc:   assoc,
		tags:    make([]uint64, n),
		owner:   make([]int32, n),
		pol:     factory(sets, assoc, seed),
		scheme:  scheme,
		idx:     hash.NewH3(seed^0xCAC4E, 64),
		perPart: make([]counters, scheme.NumPartitions()),
		wayBuf:  make([]int, 0, assoc),
		lineBuf: make([]int, 0, assoc),
	}
	for i := range c.owner {
		c.owner[i] = -1
	}
	return c, nil
}

// Access performs one access on behalf of partition part and reports
// whether it hit. On a miss the line is filled (unless the policy bypasses
// or the scheme offers no candidates).
func (c *SetAssoc) Access(addr uint64, part int) bool {
	h := c.idx.Hash(addr)
	set := c.scheme.SetIndex(h, part)
	base := set * c.assoc
	ctx := policy.AccessContext{Addr: addr, Set: set, Thread: part}
	stats := &c.perPart[part]

	// Lookup: scan the set's ways. Tag first: a 64-bit tag mismatch
	// rejects a way with one compare, where owner-first pays two loads
	// on every non-matching way. The sub-slices let the compiler hoist
	// the bounds checks out of the scan.
	setTags := c.tags[base : base+c.assoc]
	setOwners := c.owner[base : base+c.assoc]
	for w, tag := range setTags {
		if tag == addr && setOwners[w] >= 0 {
			stats.hits++
			c.pol.Hit(base+w, ctx)
			return true
		}
	}

	stats.misses++

	cands := c.scheme.Candidates(set, part, c.owner[base:base+c.assoc], c.wayBuf[:0])
	if len(cands) == 0 {
		stats.bypasses++
		return false
	}
	// Prefer a free way among the candidates.
	for _, w := range cands {
		li := base + w
		if c.owner[li] < 0 {
			c.fill(li, addr, part, ctx)
			return false
		}
	}
	// Victimize per policy over the candidate lines.
	lines := c.lineBuf[:0]
	for _, w := range cands {
		lines = append(lines, base+w)
	}
	victim := c.pol.Victim(lines, ctx)
	if victim < 0 {
		stats.bypasses++
		return false
	}
	c.scheme.OnEvict(int(c.owner[victim]))
	if c.evict != nil {
		c.evict(int(c.owner[victim]), c.tags[victim])
	}
	c.fill(victim, addr, part, ctx)
	return false
}

// SetEvictHook installs fn to be called once per line evicted by
// replacement (and per resident line on Flush) with the dying line's
// owning partition and address. Pass nil to clear.
func (c *SetAssoc) SetEvictHook(fn func(part int, addr uint64)) { c.evict = fn }

// Invalidate drops the line holding addr for partition part, if
// resident, and reports whether one was dropped. No stats move and the
// eviction hook does not fire. The set is derived with part's own index
// mapping, so under set partitioning a line must be invalidated by its
// owning partition.
func (c *SetAssoc) Invalidate(addr uint64, part int) bool {
	h := c.idx.Hash(addr)
	set := c.scheme.SetIndex(h, part)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		li := base + w
		if c.owner[li] >= 0 && c.tags[li] == addr {
			c.scheme.OnEvict(int(c.owner[li]))
			c.owner[li] = -1
			return true
		}
	}
	return false
}

func (c *SetAssoc) fill(li int, addr uint64, part int, ctx policy.AccessContext) {
	c.tags[li] = addr
	c.owner[li] = int32(part)
	c.scheme.OnFill(part)
	c.pol.Fill(li, ctx)
}

// SetPartitionSizes programs per-partition target sizes in lines.
func (c *SetAssoc) SetPartitionSizes(sizes []int64) error { return c.scheme.SetTargets(sizes) }

// NumPartitions implements core.PartitionedCache.
func (c *SetAssoc) NumPartitions() int { return c.scheme.NumPartitions() }

// Capacity implements core.PartitionedCache (actual lines after geometry
// rounding).
func (c *SetAssoc) Capacity() int64 { return int64(c.sets) * int64(c.assoc) }

// PartitionableCapacity implements core.PartitionedCache.
func (c *SetAssoc) PartitionableCapacity() int64 {
	return int64(float64(c.Capacity()) * c.scheme.PartitionableFraction())
}

// Granule implements core.PartitionedCache.
func (c *SetAssoc) Granule() int64 { return c.scheme.GranuleLines() }

// Sets and Assoc expose the geometry.
func (c *SetAssoc) Sets() int  { return c.sets }
func (c *SetAssoc) Assoc() int { return c.assoc }

// Scheme returns the partitioning scheme (for occupancy inspection).
func (c *SetAssoc) Scheme() partition.Scheme { return c.scheme }

// Policy returns the replacement policy.
func (c *SetAssoc) Policy() policy.Policy { return c.pol }

// Stats returns total access statistics (the sum over partitions);
// PartStats returns partition p's.
func (c *SetAssoc) Stats() Stats          { return sumStats(c.perPart) }
func (c *SetAssoc) PartStats(p int) Stats { return c.perPart[p].stats() }

// ResetStats clears counters without disturbing cache contents, so
// measurement can begin after warmup.
func (c *SetAssoc) ResetStats() { clear(c.perPart) }

// Flush invalidates all lines and clears policy and occupancy state.
// The eviction hook, if set, fires for every line that was resident.
func (c *SetAssoc) Flush() {
	for i := range c.owner {
		if c.owner[i] >= 0 && c.evict != nil {
			c.evict(int(c.owner[i]), c.tags[i])
		}
		c.owner[i] = -1
	}
	c.pol.Reset()
	c.scheme.Reset()
	c.ResetStats()
}

// String describes the cache configuration.
func (c *SetAssoc) String() string {
	return fmt.Sprintf("%d-way %d-set %s/%s (%d lines)",
		c.assoc, c.sets, c.scheme.Name(), c.pol.Name(), c.Capacity())
}
