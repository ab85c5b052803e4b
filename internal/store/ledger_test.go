package store_test

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/store"
)

// TestStoreCountLedger records what the store's four basic operations
// cost in mallocs, through the string entry points and the byte ones
// the HTTP front-end calls, and the heap one resident value holds, in
// TestAllocationBudget's pattern: each row is its recorded count plus a
// stated slack, and every run logs the counts. The store is built with
// no epoch inside the run (an epoch step allocates its curves), no
// backend and no byte cap. The heap row is skipped under -race, which
// instruments every allocation.
func TestStoreCountLedger(t *testing.T) {
	const n = 4096
	ac, err := adaptive.Build("vantage", 1<<15, 16, 1, 1, 0.05, adaptive.Config{EpochAccesses: 1 << 40, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.New(ac, store.Config{Tenants: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	value := bytes.Repeat([]byte("v"), 64)
	keys := make([]string, 2*n) // made up front: the store keeps the caller's key
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	byteKeys := make([][]byte, n) // never kept: a new entry copies its key
	for i := range byteKeys {
		byteKeys[i] = []byte("b" + strconv.Itoa(i))
	}
	tenant, resident := []byte("a"), []byte("resident")
	kept := value[:len(value):len(value)] // kept as it is, not copied
	if _, err := s.Set("a", "resident", value); err != nil {
		t.Fatal(err)
	}
	// heap: the live heap n new keys add, per resident value. Two GCs
	// on each side empty sync.Pool's victim cache, which would otherwise
	// free what earlier code pooled inside the window.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, k := range keys[:n] {
		if _, err := s.Set("a", k, value); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st, err := s.Stats("a")
	if err != nil {
		t.Fatal(err)
	}
	perValue := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(st.Keys-1)
	t.Logf("heap per resident %d-B value: %.1f B (%d of %d keys resident)", len(value), perValue, st.Keys-1, n)
	// 148 B: the 48-B entry, the 64-B copy and the value's share of the
	// index. An entry with a chain pointer (56 B, the 64-B size class)
	// reads 164.
	const heapBudget, heapSlack = 148, 8
	if !raceEnabled() && perValue > heapBudget+heapSlack {
		t.Errorf("heap per resident value: %.1f B, budget %d + %d", perValue, heapBudget, heapSlack)
	}

	next, nextBytes := n, 0 // the next never-written keys
	for _, row := range []struct {
		name   string
		op     func() error
		budget float64 // recorded mallocs per op; the slack is 0.25
		// formats: the op formats an error, and under -race sync.Pool
		// drops fmt's printers at random, so the row is only logged.
		formats bool
	}{
		{"Get hit", func() error { _, _, err := s.Get("a", "resident"); return err }, 0, false},
		{"Get of an absent key", func() error { s.Get("a", "absent"); return nil }, 3, true},
		{"Set of a resident key", func() error { _, err := s.Set("a", "resident", value); return err }, 1, false},
		{"Set of a new key", func() error { _, err := s.Set("a", keys[next], value); next++; return err }, 2, false},
		// The byte entry points. A new key costs the same two as through
		// Set, the entry and the copy of its key, where Set's caller made
		// the key; a kept value costs nothing.
		{"GetBytes hit", func() error { _, _, err := s.GetBytes(tenant, resident); return err }, 0, false},
		{"SetBytes of a resident key, its value kept", func() error { _, err := s.SetBytes(tenant, resident, kept, 0); return err }, 0, false},
		{"SetBytes of a new key, its value kept", func() error {
			_, err := s.SetBytes(tenant, byteKeys[nextBytes], kept, 0)
			nextBytes++
			return err
		}, 2, false},
	} {
		per, err := mallocsPerOp(n, row.op)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		t.Logf("%s: %.2f mallocs/op", row.name, per)
		if per > row.budget+0.25 && !(row.formats && raceEnabled()) {
			t.Errorf("%s: %.2f mallocs/op, budget %.0f", row.name, per, row.budget)
		}
	}
}

// mallocsPerOp runs op n times and returns the mallocs per run.
func mallocsPerOp(n int, op func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
