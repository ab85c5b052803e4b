package store

import (
	"fmt"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/sim"
)

// TestCollisionChainBooks drives the same-line collision chain — which
// real keys reach with odds 2^-48 a pair — by admitting keys onto a
// chosen address directly: three keys share each line, one is
// overwritten, then the head, the middle or the tail of the chain is
// released, and finally the line is evicted. After every step the
// running books equal a recount over the lines, and every surviving key
// still reads its own bytes, never a neighbour's.
func TestCollisionChainBooks(t *testing.T) {
	ac, err := sim.BuildAdaptiveCache("vantage", 4096, 16, 1, 2, "LRU", 0.05, adaptive.Config{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ac, Config{Tenants: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tn := s.tenants["a"]

	want := map[uint64]map[string]string{} // line → key → value
	check := func(step string) {
		t.Helper()
		var keys, bytes int64
		for addr, m := range want {
			for k, v := range m {
				keys++
				bytes += int64(len(v))
				if got, ok, _ := s.lookup(tn, addr, k); !ok || string(got) != v {
					t.Fatalf("%s: %s on line %#x reads %q (present %v), want %q", step, k, addr, got, ok, v)
				}
			}
		}
		rk, rb := Recount(s, "a")
		st, err := s.Stats("a")
		if err != nil {
			t.Fatal(err)
		}
		if rk != keys || rb != bytes || st.Keys != keys || st.Bytes != bytes || s.Bytes() != bytes {
			t.Fatalf("%s: model %d keys/%d bytes, recount %d/%d, stats %d/%d, Store.Bytes %d",
				step, keys, bytes, rk, rb, st.Keys, st.Bytes, s.Bytes())
		}
	}
	admit := func(addr uint64, key, val string) {
		s.admitValue(tn, key, addr, []byte(val), 0)
		if want[addr] == nil {
			want[addr] = map[string]string{}
		}
		want[addr][key] = val
	}

	// Entries push onto the head, so on each line the chain reads
	// k2 → k1 → k0: victim 2 is the head, 1 the middle, 0 the tail.
	for victim := 0; victim < 3; victim++ {
		addr := uint64(0xC0111DE0 + victim)
		for i := 0; i < 3; i++ {
			admit(addr, fmt.Sprintf("k%d", i), fmt.Sprintf("line %d value %d", victim, i))
		}
		check(fmt.Sprintf("line %d admitted", victim))
		admit(addr, "k1", "overwritten with a longer value")
		check(fmt.Sprintf("line %d overwrite", victim))

		key := fmt.Sprintf("k%d", victim)
		tn.mu.Lock()
		released := s.release(tn, addr, key)
		again := s.release(tn, addr, key)
		tn.mu.Unlock()
		if !released || again {
			t.Fatalf("line %d: release(%s) = %v, then %v; want true, then false", victim, key, released, again)
		}
		delete(want[addr], key)
		check(fmt.Sprintf("line %d release %s", victim, key))
	}

	for addr := range want {
		s.onEvict(tn.part, addr|tn.space)
		delete(want, addr)
		check(fmt.Sprintf("line %#x evicted", addr))
	}
	if st, _ := s.Stats("a"); st.Evictions != 6 || len(tn.lines) != 0 {
		t.Fatalf("3 lines × 2 survivors evicted: Evictions = %d, %d lines left", st.Evictions, len(tn.lines))
	}
}
