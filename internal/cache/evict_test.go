package cache

import (
	"testing"

	"talus/internal/partition"
	"talus/internal/policy"
)

// evictLog collects hook firings in order.
type evictLog struct {
	parts []int
	addrs []uint64
}

func (l *evictLog) hook(part int, addr uint64) {
	l.parts = append(l.parts, part)
	l.addrs = append(l.addrs, addr)
}

// TestSetAssocEvictHook pins the hook contract on the set-associative
// array: every replacement eviction fires exactly once with the dying
// line's owner and address, and residency is conserved — a line is
// either still resident or was reported evicted.
func TestSetAssocEvictHook(t *testing.T) {
	c := newLRUCache(t, 16, 4, partition.NewNone(1)) // 4 sets × 4 ways
	var log evictLog
	c.SetEvictHook(log.hook)

	seen := make(map[uint64]bool)
	const n = 512
	for a := uint64(0); a < n; a++ {
		c.Access(a, 0)
		seen[a] = true
	}
	for _, a := range log.addrs {
		if !seen[a] {
			t.Fatalf("hook reported never-inserted address %#x", a)
		}
	}
	// Conservation: inserted = evicted + still resident.
	resident := 0
	for a := uint64(0); a < n; a++ {
		if c.Invalidate(a, 0) {
			resident++
		}
	}
	if len(log.addrs)+resident != n {
		t.Fatalf("conservation: %d evicted + %d resident != %d inserted",
			len(log.addrs), resident, n)
	}
	if len(log.addrs) == 0 {
		t.Fatal("512 addresses through 16 lines never evicted")
	}
}

// TestSetAssocInvalidate: dropping a resident line makes the next
// access miss, moves no stats, and does not fire the eviction hook.
func TestSetAssocInvalidate(t *testing.T) {
	c := newLRUCache(t, 64, 4, partition.NewNone(1))
	var log evictLog
	c.SetEvictHook(log.hook)

	c.Access(7, 0)
	if !c.Access(7, 0) {
		t.Fatal("warm line must hit")
	}
	statsBefore := c.Stats()
	if !c.Invalidate(7, 0) {
		t.Fatal("resident line not invalidated")
	}
	if c.Invalidate(7, 0) {
		t.Fatal("double invalidate reported a line")
	}
	if c.Stats() != statsBefore {
		t.Fatalf("invalidate moved stats: %+v -> %+v", statsBefore, c.Stats())
	}
	if len(log.addrs) != 0 {
		t.Fatalf("invalidate fired the eviction hook: %+v", log.addrs)
	}
	if c.Access(7, 0) {
		t.Fatal("invalidated line must miss")
	}
}

// TestSetAssocFlushFiresHook: Flush reports every resident line.
func TestSetAssocFlushFiresHook(t *testing.T) {
	c := newLRUCache(t, 64, 4, partition.NewNone(1))
	var log evictLog
	c.SetEvictHook(log.hook)
	for a := uint64(0); a < 10; a++ {
		c.Access(a, 0)
	}
	c.Flush()
	if len(log.addrs) != 10 {
		t.Fatalf("flush reported %d lines, want 10", len(log.addrs))
	}
}

// TestIdealEvictHook: the idealized per-partition LRU fires the hook on
// capacity evictions (access overflow) and shrinking resizes, with the
// right partition, and supports invalidation.
func TestIdealEvictHook(t *testing.T) {
	c, err := NewIdeal(8, 2) // 4 lines per partition
	if err != nil {
		t.Fatal(err)
	}
	var log evictLog
	c.SetEvictHook(log.hook)
	for a := uint64(0); a < 6; a++ {
		c.Access(a, 1)
	}
	if len(log.addrs) != 2 {
		t.Fatalf("6 addresses through 4 lines evicted %d, want 2", len(log.addrs))
	}
	// LRU order: 0 then 1 die first.
	if log.addrs[0] != 0 || log.addrs[1] != 1 {
		t.Fatalf("eviction order = %v, want [0 1]", log.addrs)
	}
	for _, p := range log.parts {
		if p != 1 {
			t.Fatalf("eviction in partition %d, want 1", p)
		}
	}
	// A shrinking resize evicts through the same hook.
	if err := c.SetPartitionSizes([]int64{4, 2}); err != nil {
		t.Fatal(err)
	}
	if len(log.addrs) != 4 {
		t.Fatalf("resize to 2 lines evicted %d total, want 4", len(log.addrs))
	}
	// Invalidate: resident goes, stats stay, absent reports false.
	if !c.Invalidate(5, 1) {
		t.Fatal("resident line not invalidated")
	}
	if c.Invalidate(5, 1) {
		t.Fatal("double invalidate reported a line")
	}
	if c.Access(5, 1) {
		t.Fatal("invalidated line must hit no more")
	}
}

// TestShardedEvictHook: the sharded router forwards the hook to every
// shard and routes invalidations to the owning shard; outcomes match
// the per-shard arrays exactly.
func TestShardedEvictHook(t *testing.T) {
	sc, err := NewSharded(4, 64, 99, func(i int, capacity int64) (Shard, error) {
		return NewSetAssoc(capacity, 4, partition.NewNone(1), policy.LRUFactory, uint64(i))
	})
	if err != nil {
		t.Fatal(err)
	}
	var log evictLog
	sc.SetEvictHook(log.hook)
	const n = 1024
	for a := uint64(0); a < n; a++ {
		sc.Access(a, 0)
	}
	if len(log.addrs) == 0 {
		t.Fatal("1024 addresses through 64 lines never evicted")
	}
	resident := 0
	for a := uint64(0); a < n; a++ {
		if sc.Invalidate(a, 0) {
			resident++
		}
	}
	if len(log.addrs)+resident != n {
		t.Fatalf("conservation: %d evicted + %d resident != %d inserted",
			len(log.addrs), resident, n)
	}
}
