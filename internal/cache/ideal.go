// Idealized partitioned cache: per-partition fully-associative LRU with
// exact line-granularity sizing. This is the paper's "Talus+I"
// configuration (Fig. 8): it removes associativity and set-mapping
// effects entirely, so Assumption 2 holds exactly and Talus should trace
// the convex hull as closely as sampling noise allows.

package cache

import (
	"errors"
	"fmt"
)

// Ideal is a set of independent fully-associative LRU caches, one per
// partition, each enforcing its capacity exactly. It implements
// core.PartitionedCache.
type Ideal struct {
	parts    []*fullLRU
	capacity int64
	perPart  []counters
	evict    func(part int, addr uint64) // eviction hook, nil when unset
}

// ErrOverCommit reports partition sizes exceeding the cache's capacity.
var ErrOverCommit = errors.New("cache: partition sizes exceed capacity")

// NewIdeal builds an idealized cache of capacityLines lines shared by
// numPartitions partitions. Initially capacity is split evenly.
func NewIdeal(capacityLines int64, numPartitions int) (*Ideal, error) {
	if capacityLines <= 0 || numPartitions <= 0 {
		return nil, ErrBadGeometry
	}
	c := &Ideal{
		parts:    make([]*fullLRU, numPartitions),
		capacity: capacityLines,
		perPart:  make([]counters, numPartitions),
	}
	for i := range c.parts {
		share := capacityLines / int64(numPartitions)
		if int64(i) < capacityLines%int64(numPartitions) {
			share++
		}
		c.parts[i] = newFullLRU(share)
	}
	return c, nil
}

// Access implements core.PartitionedCache.
func (c *Ideal) Access(addr uint64, part int) bool {
	hit := c.parts[part].access(addr)
	if hit {
		c.perPart[part].hits++
	} else {
		c.perPart[part].misses++
	}
	return hit
}

// SetPartitionSizes implements core.PartitionedCache. Sizes must not
// exceed total capacity; shrunk partitions evict LRU lines immediately.
func (c *Ideal) SetPartitionSizes(sizes []int64) error {
	if len(sizes) != len(c.parts) {
		return fmt.Errorf("cache: want %d sizes, got %d", len(c.parts), len(sizes))
	}
	var sum int64
	for _, s := range sizes {
		if s < 0 {
			return fmt.Errorf("cache: negative partition size %d", s)
		}
		sum += s
	}
	if sum > c.capacity {
		return fmt.Errorf("%w: %d > %d", ErrOverCommit, sum, c.capacity)
	}
	for i, s := range sizes {
		c.parts[i].resize(s)
	}
	return nil
}

// NumPartitions implements core.PartitionedCache.
func (c *Ideal) NumPartitions() int { return len(c.parts) }

// Capacity implements core.PartitionedCache.
func (c *Ideal) Capacity() int64 { return c.capacity }

// PartitionableCapacity implements core.PartitionedCache.
func (c *Ideal) PartitionableCapacity() int64 { return c.capacity }

// Granule implements core.PartitionedCache: exact line granularity.
func (c *Ideal) Granule() int64 { return 1 }

// Stats and PartStats report access statistics.
func (c *Ideal) Stats() Stats          { return sumStats(c.perPart) }
func (c *Ideal) PartStats(p int) Stats { return c.perPart[p].stats() }

// ResetStats clears counters without disturbing contents.
func (c *Ideal) ResetStats() { clear(c.perPart) }

// PartitionOccupancy returns partition p's resident line count.
func (c *Ideal) PartitionOccupancy(p int) int64 { return int64(len(c.parts[p].nodes)) }

// SetEvictHook installs fn to be called once per line evicted by
// capacity pressure — on access overflow or a shrinking resize — with
// the line's partition and address. Pass nil to clear. Implements
// EvictNotifier; always reports true.
func (c *Ideal) SetEvictHook(fn func(part int, addr uint64)) bool {
	c.evict = fn
	for p, f := range c.parts {
		if fn == nil {
			f.evict = nil
			continue
		}
		p := p
		f.evict = func(addr uint64) { fn(p, addr) }
	}
	return true
}

// Invalidate drops partition part's line for addr, if resident, and
// reports whether one was dropped. No stats move and the eviction hook
// does not fire. Implements Invalidator.
func (c *Ideal) Invalidate(addr uint64, part int) bool {
	f := c.parts[part]
	n, ok := f.nodes[addr]
	if !ok {
		return false
	}
	f.unlink(n)
	delete(f.nodes, addr)
	return true
}

// fullLRU is a fully-associative LRU cache over line addresses, built on
// a hash map plus an intrusive doubly-linked list (MRU at head).
type fullLRU struct {
	cap   int64
	nodes map[uint64]*lruNode
	head  *lruNode          // MRU
	tail  *lruNode          // LRU
	evict func(addr uint64) // partition-bound eviction hook, nil when unset
}

type lruNode struct {
	addr       uint64
	prev, next *lruNode
}

func newFullLRU(capacity int64) *fullLRU {
	return &fullLRU{cap: capacity, nodes: make(map[uint64]*lruNode)}
}

func (f *fullLRU) access(addr uint64) bool {
	if n, ok := f.nodes[addr]; ok {
		f.moveToFront(n)
		return true
	}
	if f.cap <= 0 {
		return false // zero-size partition: pure bypass
	}
	n := &lruNode{addr: addr}
	f.nodes[addr] = n
	f.pushFront(n)
	for int64(len(f.nodes)) > f.cap {
		f.evictLRU()
	}
	return false
}

func (f *fullLRU) resize(capacity int64) {
	f.cap = capacity
	for int64(len(f.nodes)) > f.cap {
		f.evictLRU()
	}
}

func (f *fullLRU) pushFront(n *lruNode) {
	n.prev = nil
	n.next = f.head
	if f.head != nil {
		f.head.prev = n
	}
	f.head = n
	if f.tail == nil {
		f.tail = n
	}
}

func (f *fullLRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		f.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		f.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (f *fullLRU) moveToFront(n *lruNode) {
	if f.head == n {
		return
	}
	f.unlink(n)
	f.pushFront(n)
}

func (f *fullLRU) evictLRU() {
	if f.tail == nil {
		return
	}
	victim := f.tail
	f.unlink(victim)
	delete(f.nodes, victim.addr)
	if f.evict != nil {
		f.evict(victim.addr)
	}
}
