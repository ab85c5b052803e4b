package store

import (
	"errors"
	"testing"

	"talus/internal/adaptive"
)

// TestLineHoldsOneValue drives the line conflict real keys almost never
// reach (two keys on one 48-bit line) by admitting a second key onto
// the line the first hashes to: the second replaces the first and counts
// an eviction, as a conflict does in the array, and a Get of the first
// never reads the second's bytes. A Delete of the first drops its line,
// and the second's value goes with it as an eviction. After every step
// — an overwrite, a byte-cap refusal that leaves the resident value in
// place, a Delete of each key, a Set onto the emptied line and an
// eviction — the running books equal a recount over the lines.
func TestLineHoldsOneValue(t *testing.T) {
	ac, err := adaptive.Build("vantage", 4096, 16, 1, 2, 0.05, adaptive.Config{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ac, Config{Tenants: []string{"a"}, MaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tn := s.roster.Load().byName["a"]
	line := hashKey("k1")

	// resident is the model: the one key on line and its value ("" = none).
	var resident, val string
	check := func(step string, evictions, drops int64) {
		t.Helper()
		var bytes int64
		for _, k := range []string{"k1", "k2"} {
			got, ok, _ := read(s, tn, line, k)
			switch {
			case k == resident && (!ok || string(got) != val):
				t.Fatalf("%s: %s reads %q (present %v), want %q", step, k, got, ok, val)
			case k != resident && ok:
				t.Fatalf("%s: %s reads %q, want absent (%s holds the line)", step, k, got, resident)
			}
		}
		var keys int64
		if resident != "" {
			keys, bytes = 1, int64(len(val))
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
		if st.Evictions != evictions || st.AdmitDrops != drops {
			t.Fatalf("%s: Evictions %d, AdmitDrops %d; want %d, %d", step, st.Evictions, st.AdmitDrops, evictions, drops)
		}
	}
	onto := func(key, v string) {
		admit(s, tn, key, line, []byte(v), 0)
		resident, val = key, v
	}

	onto("k1", "first")
	check("k1 admitted", 0, 0)
	onto("k2", "second")
	check("k2 admitted onto k1's line", 1, 0)
	if v, hit, err := s.Get("a", "k1"); !errors.Is(err, ErrNotFound) || hit {
		t.Fatalf("Get k1 with k2 on its line = %q, hit %v, %v; want ErrNotFound", v, hit, err)
	}
	onto("k2", "second, overwritten longer")
	check("k2 overwritten", 1, 0)

	admit(s, tn, "k1", line, make([]byte, 65), 0)
	check("k1 refused by the byte cap", 1, 1)

	if existed, err := s.Delete("a", "k1"); existed || err != nil {
		t.Fatalf("Delete k1 while k2 holds its line = %v, %v; want false", existed, err)
	}
	resident, val = "", ""
	check("k1 deleted while absent", 2, 1)
	// k2 hashes to a line of its own, which holds nothing to delete.
	if existed, err := s.Delete("a", "k2"); existed || err != nil {
		t.Fatalf("Delete k2 = %v, %v; want false", existed, err)
	}
	check("k2 deleted from its own line", 2, 1)

	if _, err := s.Set("a", "k1", []byte("back")); err != nil {
		t.Fatal(err)
	}
	resident, val = "k1", "back"
	check("k1 Set back onto its line", 2, 1)
	if v, hit, err := s.Get("a", "k1"); string(v) != "back" || !hit || err != nil {
		t.Fatalf("Get k1 = %q, hit %v, %v; want back", v, hit, err)
	}
	if existed, err := s.Delete("a", "k1"); !existed || err != nil {
		t.Fatalf("Delete k1 = %v, %v; want true", existed, err)
	}
	resident, val = "", ""
	check("k1 deleted", 2, 1)

	onto("k2", "evict me")
	check("k2 admitted onto the empty line", 2, 1)
	s.onEvict(tn.part, line|tn.space)
	resident, val = "", ""
	check("line evicted", 3, 1)
}
