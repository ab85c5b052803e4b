package store

import (
	"errors"
	"fmt"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/hash"
)

// ghostCeiling is the number of ghost values TestGhostValueRatchet
// measured when it was written (of 6 530 values held). Lower it when a
// change removes ghosts.
const ghostCeiling = 4505

// ghosts counts the values s holds and those among them whose line is
// not resident in the cache. It invalidates every resident line on the
// way, so it ends the store's useful life.
func ghosts(s *Store) (values, ghosts int64) {
	for _, t := range s.registered() {
		t.mu.RLock()
		addrs := make([]uint64, 0, len(t.lines))
		for addr := range t.lines {
			addrs = append(addrs, addr)
		}
		t.mu.RUnlock()
		values += int64(len(addrs))
		for _, addr := range addrs {
			if !s.ac.Invalidate(addr|t.space, t.part) {
				ghosts++
			}
		}
	}
	return values, ghosts
}

// TestGhostValueRatchet is a ratchet on a known defect: when a Get's or
// Set's access fills no line, the store still admits the value, and no
// eviction ever releases it. Vantage fills no line for a partition
// whose target is zero (rule 1) — a tenant allocated 0 lines, or Talus's
// α = 0 shadow. One client drives two tenants of 6 000 uniform keys
// each, a quarter of the operations Sets, over a backend; the test logs
// how many values sit on lines the cache does not hold and fails if
// that count rises above ghostCeiling.
func TestGhostValueRatchet(t *testing.T) {
	ac, err := adaptive.Build("vantage", 2048, 16, 2, 2, 0.05,
		adaptive.Config{EpochAccesses: 1 << 14, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ac, Config{Tenants: []string{"a", "b"}, Backend: NewMemBackend(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := hash.NewSplitMix64(44)
	val := []byte("ghost")
	for i := 0; i < 200_000; i++ {
		tenant, key := "a", fmt.Sprintf("k%d", rng.Intn(6000))
		if i%2 == 1 {
			tenant = "b"
		}
		if rng.Intn(4) == 0 {
			_, err = s.Set(tenant, key, val)
		} else if _, _, err = s.Get(tenant, key); errors.Is(err, ErrNotFound) {
			err = nil
		}
		if err != nil {
			t.Fatalf("op %d on %s/%s: %v", i, tenant, key, err)
		}
	}
	values, ghost := ghosts(s)
	t.Logf("%d values held, %d of them on lines the cache does not hold", values, ghost)
	if ghost > ghostCeiling {
		t.Errorf("%d ghost values, ceiling %d", ghost, ghostCeiling)
	}
}
