package store_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/store"
)

// TestStoreOverLockedStack serves from LRU stacks other than the
// vantage arrays talus.New builds — ideal partitioning, which has no
// arrays, and a scheme whose set index moves on repartitioning — with
// two shards under concurrent clients. Everything the store promises
// must hold there too: values round-trip, an evicted line releases its
// value, and concurrent traffic is counted exactly once at both the
// tenant and the cache layer.
func TestStoreOverLockedStack(t *testing.T) {
	const capacity = 2048
	for _, scheme := range []string{"ideal", "set"} {
		t.Run("LRU/"+scheme, func(t *testing.T) {
			ac, err := adaptive.Build(scheme, capacity, 16, 2, 2, 0.05,
				adaptive.Config{EpochAccesses: 1 << 12, Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			s, err := store.New(ac, store.Config{Tenants: []string{"a", "b"}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			if _, err := s.Set("a", "k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if v, hit, err := s.Get("a", "k"); err != nil || !hit || string(v) != "v1" {
				t.Fatalf("round trip = %q, hit %v, %v", v, hit, err)
			}

			// Flood: four times the line capacity through one tenant.
			const n = 4 * capacity
			for i := 0; i < n; i++ {
				if _, err := s.Set("a", fmt.Sprintf("f%d", i), []byte("0123456789abcdef")); err != nil {
					t.Fatal(err)
				}
			}
			st, _ := s.Stats("a")
			if st.Evictions == 0 || st.Keys > capacity {
				t.Fatalf("%d keys through %d lines: %d resident, %d evicted", n, capacity, st.Keys, st.Evictions)
			}
			// Deleting every key ever written must leave no bytes: a
			// value whose line was evicted without releasing it would
			// be unreachable by Delete and stay on the books.
			s.Delete("a", "k")
			for i := 0; i < n; i++ {
				s.Delete("a", fmt.Sprintf("f%d", i))
			}
			if got := s.Bytes(); got != 0 {
				t.Fatalf("%d bytes left after deleting every key", got)
			}

			// Hammer (run under -race in CI): two tenants, eight clients.
			const (
				goroutines = 8
				perG       = 3000
			)
			before := s.StatsAll()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tenant := []string{"a", "b"}[g%2]
					state := uint64(g)*0x9E3779B9 + 1
					for i := 0; i < perG; i++ {
						state = state*6364136223846793005 + 1442695040888963407
						key := fmt.Sprintf("k%d", (state>>33)%3000)
						if i%3 == 0 {
							if _, err := s.Set(tenant, key, []byte(key)); err != nil {
								panic(err)
							}
						} else if v, _, err := s.Get(tenant, key); err == nil && string(v) != key {
							panic(fmt.Sprintf("%s/%s read back %q", tenant, key, v))
						} else if err != nil && !errors.Is(err, store.ErrNotFound) {
							panic(err)
						}
					}
				}(g)
			}
			wg.Wait()
			var ops, outcomes int64
			for i, st := range s.StatsAll() {
				ops += st.Gets + st.Sets - before[i].Gets - before[i].Sets
				outcomes += st.CacheHits + st.CacheMisses - before[i].CacheHits - before[i].CacheMisses
			}
			if ops != goroutines*perG || outcomes != ops {
				t.Fatalf("%d gets+sets, %d cache outcomes, want %d of each", ops, outcomes, goroutines*perG)
			}
			var total int64
			for _, st := range s.StatsAll() {
				total += st.CacheHits + st.CacheMisses
			}
			if cs, ok := s.CacheStats(); !ok || cs.Accesses != total || cs.Hits+cs.Misses != total {
				t.Fatalf("cache layer counted %+v, tenants counted %d", cs, total)
			}
		})
	}
}
