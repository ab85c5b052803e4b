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
	ac, err := sim.BuildAdaptiveCache("vantage", capacity, 16, shards, partitions, "LRU", 0.05,
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

func TestStoreBoundaryErrors(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{Tenants: []string{"a"}, MaxValueBytes: 8})

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
	if _, err := s.Set("a", "k", []byte("123456789")); !errors.Is(err, store.ErrValueTooLarge) {
		t.Fatalf("oversized value: %v", err)
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
	if got := len(s.StatsAll()); got != 2 {
		t.Fatalf("StatsAll returned %d tenants", got)
	}
	if names := s.Tenants(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("tenants = %v", names)
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
	cs, ok := s.CacheStats()
	if !ok || cs.Accesses != accesses {
		t.Fatalf("sharded stats %v (ok=%v), want %d accesses", cs, ok, accesses)
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
// recorded before the values moved onto their lines (PR 15). It pins
// no Get hit value: only counts, which the cache access stream,
// eviction order and admission decisions determine.
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
			CacheHits: 34614, CacheMisses: 28669, HitRatio: 0.5469715405401134,
			Keys: 746, Bytes: 59240, AllocLines: 2204, Expirations: 1388, Evictions: 1998,
			AdmitDrops: 36412, AdmitRho: 0.35546875, BackendGets: 32294, BackendSets: 23322},
		{Tenant: "zipf", Partition: 1, Gets: 79919, Sets: 46849, Deletes: 6565,
			CacheHits: 83377, CacheMisses: 43391, HitRatio: 0.6577133030417771,
			Keys: 1374, Bytes: 104424, AllocLines: 1482, Expirations: 2292, Evictions: 18236,
			AdmitDrops: 22443, AdmitRho: 1, BackendGets: 42893, BackendSets: 46849},
	}
	got := s.StatsAll()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("final stats diverged from the recorded replay:\n got %#v\nwant %#v", got, want)
	}
	if got, want := s.Bytes(), int64(163664); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
}
