package store_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"talus/internal/adaptive"
	"talus/internal/cache"
	"talus/internal/hash"
	"talus/internal/sim"
	"talus/internal/store"
	"talus/internal/trace"
	"talus/internal/workload"
)

// countingRecorder counts appends and remembers the order of addresses.
type countingRecorder struct {
	mu    sync.Mutex
	addrs []uint64
	parts []int
}

func (r *countingRecorder) Append(p int, addr uint64) error {
	r.mu.Lock()
	r.addrs = append(r.addrs, addr)
	r.parts = append(r.parts, p)
	r.mu.Unlock()
	return nil
}

// buildStore constructs a small serving stack: sharded inner cache,
// Talus runtime, control loop, keyed store.
func buildStore(t *testing.T, capacity int64, shards, partitions int, cfg store.Config) *store.Store {
	t.Helper()
	ac, err := adaptive.Build("vantage", capacity, 16, shards, partitions, 0.05,
		adaptive.Config{EpochAccesses: 1 << 14, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.New(ac, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{})

	// A pure lookup never mints a tenant: before alice's first Set she
	// does not exist (registration is a write-path privilege).
	if _, _, err := s.Get("alice", "k"); !errors.Is(err, store.ErrUnknownTenant) {
		t.Fatalf("get before set: %v, want ErrUnknownTenant", err)
	}
	if _, err := s.Set("alice", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Registered tenant, absent key: a miss, however often it is asked —
	// the first lookup leaves the key's line resident, and the second
	// used to report that line's hit for a value that was never there.
	for i := 0; i < 2; i++ {
		if _, hit, err := s.Get("alice", "nope"); !errors.Is(err, store.ErrNotFound) || hit {
			t.Fatalf("get %d of an absent key: hit %v, %v; want a miss with ErrNotFound", i, hit, err)
		}
	}
	val, hit, err := s.Get("alice", "k")
	if err != nil || string(val) != "v1" || !hit {
		t.Fatalf("get = %q, hit %v, %v; want v1 served from the cache", val, hit, err)
	}
	// Overwrite; the line is warm now, so the access should hit.
	hit, err = s.Set("alice", "k", []byte("v2"))
	if err != nil || !hit {
		t.Fatalf("overwrite hit = %v, %v; want warm line", hit, err)
	}
	if val, _, _ = s.Get("alice", "k"); string(val) != "v2" {
		t.Fatalf("after overwrite got %q", val)
	}
	// Tenants are namespaces: bob's "k" is a different line and value.
	if _, err := s.Set("bob", "other", []byte("w")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("bob", "k"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("cross-tenant leak: %v", err)
	}
	existed, err := s.Delete("alice", "k")
	if err != nil || !existed {
		t.Fatalf("delete = %v, %v", existed, err)
	}
	if existed, _ = s.Delete("alice", "k"); existed {
		t.Fatal("double delete reported a value")
	}
	if _, _, err := s.Get("alice", "k"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
}

// TestSetBytesKeepsExactValues: SetBytes keeps a value whose capacity
// is its length as it is and copies any other to its length, so a held
// value's capacity is the length the books count; Set always copies.
func TestSetBytesKeepsExactValues(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{})
	exact := []byte("exact value")
	grown := append(make([]byte, 0, 64), "grown value"...)
	for _, c := range []struct {
		key    string
		value  []byte
		viaSet bool
		kept   bool
	}{
		{"exact", exact, false, true},
		{"grown", grown, false, false},
		{"set", exact, true, false},
	} {
		var err error
		if c.viaSet {
			_, err = s.Set("a", c.key, c.value)
		} else {
			_, err = s.SetBytes([]byte("a"), []byte(c.key), c.value, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		held := store.Value(s, "a", c.key)
		if string(held) != string(c.value) || cap(held) != len(held) || (&held[0] == &c.value[0]) != c.kept {
			t.Errorf("%s: holds %q, len %d cap %d, the caller's storage %v; want %q, cap = len, the caller's storage %v",
				c.key, held, len(held), cap(held), &held[0] == &c.value[0], c.value, c.kept)
		}
	}
	if st, _ := s.Stats("a"); st.Bytes != int64(2*len(exact)+len("grown value")) {
		t.Errorf("Bytes = %d", st.Bytes)
	}
}

func TestStoreBoundaryErrors(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{Tenants: []string{"a"}})

	if _, _, err := s.Get("", "k"); !errors.Is(err, store.ErrEmptyTenant) {
		t.Fatalf("empty tenant: %v", err)
	}
	if _, _, err := s.Get("a", ""); !errors.Is(err, store.ErrEmptyKey) {
		t.Fatalf("empty key: %v", err)
	}
	if _, err := s.Set("", "k", nil); !errors.Is(err, store.ErrEmptyTenant) {
		t.Fatalf("set empty tenant: %v", err)
	}
	if _, err := s.Set("a", "", nil); !errors.Is(err, store.ErrEmptyKey) {
		t.Fatalf("set empty key: %v", err)
	}
	if _, err := s.Delete("nobody", "k"); !errors.Is(err, store.ErrUnknownTenant) {
		t.Fatalf("delete unknown tenant: %v", err)
	}
	if _, err := s.Stats("nobody"); !errors.Is(err, store.ErrUnknownTenant) {
		t.Fatalf("stats unknown tenant: %v", err)
	}
	// Two partitions: "a" is registered, one slot left. A third tenant
	// must be refused.
	if _, err := s.Set("b", "k", nil); err != nil {
		t.Fatalf("second tenant: %v", err)
	}
	if _, err := s.Set("c", "k", nil); !errors.Is(err, store.ErrTenantCapacity) {
		t.Fatalf("third tenant on two partitions: %v", err)
	}
}

func TestStoreStaticTenants(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{Tenants: []string{"a"}, Static: true})
	if _, err := s.Set("a", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Set("intruder", "k", nil); !errors.Is(err, store.ErrUnknownTenant) {
		t.Fatalf("static mode admitted a new tenant: %v", err)
	}
}

func TestStoreStatsAndCurves(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{Tenants: []string{"a", "b"}})
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("k%d", i%512)
		if _, _, err := s.Get("a", key); errors.Is(err, store.ErrNotFound) {
			s.Set("a", key, []byte("value"))
		}
	}
	st, err := s.Stats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Gets != 4096 || st.Sets != 512 || st.Keys != 512 || st.Bytes != 512*5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CacheHits+st.CacheMisses != st.Gets+st.Sets {
		t.Fatalf("hit accounting: %+v", st)
	}
	if st.CacheHits == 0 {
		t.Fatal("a 512-key working set in an 8192-line cache never hit")
	}
	if all := s.StatsAll(); len(all) != 2 || all[0].Tenant != "a" || all[0].Partition != 0 ||
		all[1].Tenant != "b" || all[1].Partition != 1 {
		t.Fatalf("StatsAll = %+v", all)
	}

	// Before any epoch: no curves. After forcing one: measured + hull.
	if m, h, err := s.Curves("b"); err != nil || m != nil || h != nil {
		t.Fatalf("idle tenant curves = %v, %v, %v", m, h, err)
	}
	if err := s.Cache().ForceEpoch(); err != nil {
		t.Fatal(err)
	}
	m, h, err := s.Curves("a")
	if err != nil || m == nil || h == nil {
		t.Fatalf("curves after epoch = %v, %v, %v", m, h, err)
	}
	if h.NumPoints() > m.NumPoints() {
		t.Fatalf("hull has %d points, measured %d", h.NumPoints(), m.NumPoints())
	}
}

// TestStoreRecordReplay is the acceptance criterion: traffic captured
// from the serving front-end replays through RunAdaptiveTraceFile
// without error, tenant names intact.
func TestStoreRecordReplay(t *testing.T) {
	const capacity = 8192
	s := buildStore(t, capacity, 1, 2, store.Config{Tenants: []string{"scan", "rand"}})
	path := filepath.Join(t.TempDir(), "front.trc")
	if err := s.StartRecording(path, true); err != nil {
		t.Fatal(err)
	}
	if err := s.StartRecording(path, true); !errors.Is(err, store.ErrRecording) {
		t.Fatalf("double start: %v", err)
	}
	var state uint64 = 1
	for i := 0; i < 1<<15; i++ {
		s.Set("scan", fmt.Sprintf("s%d", i%6144), []byte("x"))
		state = state*6364136223846793005 + 1442695040888963407
		s.Set("rand", fmt.Sprintf("r%d", (state>>33)%3000), []byte("y"))
	}
	count, err := s.StopRecording()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 << 15); count != want {
		t.Fatalf("recorded %d records, want %d", count, want)
	}
	if _, err := s.StopRecording(); !errors.Is(err, store.ErrNotRecording) {
		t.Fatalf("double stop: %v", err)
	}

	// The trace is self-describing: tenant names rode along.
	r, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := r.Header()
	r.Close()
	if hdr.NumPartitions != 2 || hdr.Apps[0].Name != "scan" || hdr.Apps[1].Name != "rand" {
		t.Fatalf("header = %+v", hdr)
	}

	res, err := sim.RunAdaptiveTraceFile(sim.AdaptiveConfig{
		CapacityLines: capacity,
		EpochAccesses: 1 << 14,
		Seed:          21,
	}, path)
	if err != nil {
		t.Fatalf("replaying front-end trace: %v", err)
	}
	if res.Apps[0] != "scan" || res.Apps[1] != "rand" {
		t.Fatalf("replay apps = %v", res.Apps)
	}
	if res.Epochs == 0 {
		t.Fatal("replay drove no epochs")
	}
	for i, mr := range res.MissRatio {
		if mr <= 0 || mr >= 1 {
			t.Fatalf("partition %d replay miss ratio %v", i, mr)
		}
	}
}

// TestStoreConcurrentHammer drives concurrent Get/Set/Delete traffic
// across tenants from many goroutines (run under -race in CI) and then
// checks the books balance.
func TestStoreConcurrentHammer(t *testing.T) {
	const (
		goroutines = 8
		perG       = 4000
		tenantsN   = 4
	)
	s := buildStore(t, 16384, 4, tenantsN, store.Config{})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%tenantsN)
			state := uint64(g)*0x9E3779B9 + 1
			for i := 0; i < perG; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				key := fmt.Sprintf("k%d", (state>>33)%2048)
				switch i % 4 {
				case 0:
					if _, err := s.Set(tenant, key, []byte(key)); err != nil {
						panic(err)
					}
				case 3:
					if _, err := s.Delete(tenant, key); err != nil {
						panic(err)
					}
				default:
					if _, _, err := s.Get(tenant, key); err != nil && !errors.Is(err, store.ErrNotFound) {
						panic(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	var gets, sets, deletes, accesses, bytes int64
	for _, st := range s.StatsAll() {
		gets += st.Gets
		sets += st.Sets
		deletes += st.Deletes
		accesses += st.CacheHits + st.CacheMisses
		bytes += st.Bytes
		if keys, b := store.Recount(s, st.Tenant); st.Keys != keys || st.Bytes != b {
			t.Fatalf("%s: books say %d keys/%d bytes, a recount over the lines %d/%d", st.Tenant, st.Keys, st.Bytes, keys, b)
		}
	}
	if got := s.Bytes(); got != bytes {
		t.Fatalf("global byte counter %d != tenant bytes %d", got, bytes)
	}
	total := int64(goroutines * perG)
	if gets+sets+deletes != total {
		t.Fatalf("ops %d+%d+%d != %d", gets, sets, deletes, total)
	}
	// Gets and Sets access the cache; Deletes do not.
	if accesses != gets+sets {
		t.Fatalf("cache accesses %d, want %d", accesses, gets+sets)
	}
	if cs := s.Cache().Shadowed().Inner().(*cache.ShardedCache).Stats(); cs.Accesses != accesses {
		t.Fatalf("sharded stats %+v, want %d accesses", cs, accesses)
	}
}

// TestConcurrentAccessExactness hammers one tenant from many goroutines
// (run under -race in CI) and checks that nothing is lost or
// double-counted: request counters, simulated outcomes, and the record
// hook all account for every Get/Set access exactly once.
func TestConcurrentAccessExactness(t *testing.T) {
	s := buildStore(t, 8192, 4, 2, store.Config{})
	rec := &countingRecorder{}
	if err := s.SetRecorder(rec); err != nil {
		t.Fatal(err)
	}

	const (
		workers   = 8
		perWorker = 4096
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("k%d", (w*perWorker+i)%512)
				if i%4 == 0 {
					if _, err := s.Set("hot", key, []byte("v")); err != nil {
						t.Error(err)
						return
					}
				} else if _, _, err := s.Get("hot", key); err != nil && !errors.Is(err, store.ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	const total = int64(workers * perWorker)
	st, err := s.Stats("hot")
	if err != nil {
		t.Fatal(err)
	}
	if st.Gets+st.Sets != total {
		t.Fatalf("request counters: gets %d + sets %d != %d", st.Gets, st.Sets, total)
	}
	if st.CacheHits+st.CacheMisses != total {
		t.Fatalf("outcome counters: hits %d + misses %d != %d", st.CacheHits, st.CacheMisses, total)
	}
	if got := int64(len(rec.addrs)); got != total {
		t.Fatalf("recorded %d accesses, want %d", got, total)
	}
	for _, p := range rec.parts {
		if p != st.Partition {
			t.Fatalf("recorded partition %d, want %d", p, st.Partition)
		}
	}
}

// TestStoreReplayIdentity is the before/after gate for changes to how
// the store holds its values: one goroutine replays a seeded script of
// Get/Set/SetTTL/Delete over two tenants — a cyclic scan and a skewed
// draw — on a 4096-line store with a byte cap, a backend and a logical
// clock (so expiry fires), and the final books must equal literals
// recorded before the values moved onto their lines. It pins
// no Get hit value: only counts, which the cache access stream,
// eviction order and byte-cap refusals determine.
//
// Re-based once on purpose when the Eq. 6 admission gate in front of
// the byte cap was deleted: the scan tenant's ρ had been 0.355, so it
// now keeps 1512 keys instead of 746 and the zipf tenant 961 instead of
// 1374 under the same cap (Bytes() 163664 → 163816), and backend reads
// rose 75187 → 76396 (+1.6 %) — the gate had helped this small replay.
// Line-level counts that do not depend on admission (allocations,
// request counts) did not move.
//
// Re-based a second time on purpose when an expired Get that reads
// through stopped invalidating the line its re-admitted copy hangs off
// (TestExpiredReadThroughStaysEvictable): those copies now sit on
// resident lines, hit there and die with them. Before → after, scan:
// CacheHits 33802 → 35294 (CacheMisses to match), Keys 1512 → 1546,
// Bytes 103968 → 104704, Expirations 2644 → 2719, Evictions 2134 →
// 2343, AdmitDrops 20883 → 20432, BackendGets 24804 → 24716; zipf:
// CacheHits 84195 → 84207, Keys 961 → 938, Bytes 59848 → 59120,
// Expirations 1653 → 1628, Evictions 12487 → 13728, AdmitDrops 44148
// → 43636, BackendGets 51592 → 51944; Bytes() 163816 → 163824.
// Request counts and allocations did not move.
func TestStoreReplayIdentity(t *testing.T) {
	const (
		ops      = 200_000
		scanKeys = 3000
		zipfKeys = 8192
	)
	s := buildStore(t, 4096, 1, 2, store.Config{
		Tenants:  []string{"scan", "zipf"},
		MaxBytes: 160 << 10,
		Backend:  store.NewMemBackend(0),
	})
	now := time.Unix(1_000_000, 0)
	s.SetNow(func() time.Time { return now })

	rng := hash.NewSplitMix64(15)
	z := workload.NewZipf(zipfKeys, 0.9)
	val := make([]byte, 160)
	for i := range val {
		val[i] = byte(i)
	}
	for i, scan := 0, 0; i < ops; i++ {
		now = now.Add(time.Millisecond)
		tenant, key := "zipf", fmt.Sprintf("z%d", z.Next(rng))
		if i%3 == 0 {
			tenant, key = "scan", fmt.Sprintf("s%d", scan%scanKeys)
			scan++
		}
		v := val[:16+24*rng.Intn(7)]
		var err error
		switch r := rng.Intn(100); {
		case r < 60:
			if _, _, err = s.Get(tenant, key); errors.Is(err, store.ErrNotFound) {
				err = nil
			}
		case r < 80:
			_, err = s.Set(tenant, key, v)
		case r < 95:
			_, err = s.SetTTL(tenant, key, v, time.Duration(50+rng.Intn(5000))*time.Millisecond)
		default:
			_, err = s.Delete(tenant, key)
		}
		if err != nil {
			t.Fatalf("op %d on %s/%s: %v", i, tenant, key, err)
		}
	}

	want := []store.TenantStats{
		{Tenant: "scan", Partition: 0, Gets: 39961, Sets: 23322, Deletes: 3384,
			CacheHits: 35294, CacheMisses: 27989, HitRatio: 0.5577169223962202,
			Keys: 1546, Bytes: 104704, AllocLines: 2204, Expirations: 2719, Evictions: 2343,
			AdmitDrops: 20432, BackendGets: 24716, BackendSets: 23322},
		{Tenant: "zipf", Partition: 1, Gets: 79919, Sets: 46849, Deletes: 6565,
			CacheHits: 84207, CacheMisses: 42561, HitRatio: 0.6642606967057932,
			Keys: 938, Bytes: 59120, AllocLines: 1482, Expirations: 1628, Evictions: 13728,
			AdmitDrops: 43636, BackendGets: 51944, BackendSets: 46849},
	}
	got := s.StatsAll()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("final stats diverged from the recorded replay:\n got %#v\nwant %#v", got, want)
	}
	if got, want := s.Bytes(), int64(163824); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
}
