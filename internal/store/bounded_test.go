package store_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"talus/internal/hash"
	"talus/internal/store"
	"talus/internal/workload"
)

// TestDeleteInvalidatesLine is the regression test for the phantom-
// residency bug: Delete used to remove the value but leave the
// simulated line resident, so the next access to the dead key still
// "hit" and skewed hit ratios and miss curves. Delete must invalidate.
func TestDeleteInvalidatesLine(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{Tenants: []string{"a"}})
	if _, err := s.Set("a", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := s.Get("a", "k"); err != nil || !hit {
		t.Fatalf("warm get = hit %v, %v; want hit", hit, err)
	}
	if existed, err := s.Delete("a", "k"); err != nil || !existed {
		t.Fatalf("delete = %v, %v", existed, err)
	}
	_, hit, err := s.Get("a", "k")
	if !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("get after delete: %v, want ErrNotFound", err)
	}
	if hit {
		t.Fatal("deleted key's line still resident: Delete must invalidate the simulated line")
	}
}

// TestBoundedEvictionReleasesValues pins the core coupling: an evicted
// line releases the values hanging off it, so a working set far over
// capacity cannot accumulate — and without a backend, an evicted key
// reads back as a true miss. It holds with no byte cap at all (the line
// capacity is the bound) exactly as under a cap that never binds.
func TestBoundedEvictionReleasesValues(t *testing.T) {
	const (
		capacity = 2048
		n        = 4 * capacity
	)
	for name, cfg := range map[string]store.Config{
		"no cap, no backend":   {Tenants: []string{"a"}},
		"cap that never binds": {Tenants: []string{"a"}, MaxBytes: n * 16},
	} {
		t.Run(name, func(t *testing.T) {
			s := buildStore(t, capacity, 1, 2, cfg)
			for i := 0; i < n; i++ {
				if _, err := s.Set("a", fmt.Sprintf("k%d", i), []byte("0123456789abcdef")); err != nil {
					t.Fatal(err)
				}
			}
			st, err := s.Stats("a")
			if err != nil {
				t.Fatal(err)
			}
			if st.Evictions == 0 {
				t.Fatalf("%d keys through %d lines evicted nothing: %+v", n, capacity, st)
			}
			if st.Keys > capacity {
				t.Fatalf("%d keys resident on a %d-line cache: %+v", st.Keys, capacity, st)
			}
			if st.Keys+st.Evictions+st.AdmitDrops < n {
				t.Fatalf("key conservation: %d kept + %d evicted + %d dropped < %d inserted", st.Keys, st.Evictions, st.AdmitDrops, n)
			}
			if st.Bytes != st.Keys*16 {
				t.Fatalf("byte accounting: %d bytes for %d 16-byte keys", st.Bytes, st.Keys)
			}
			if got := s.Bytes(); got != st.Bytes {
				t.Fatalf("global byte counter %d != tenant bytes %d", got, st.Bytes)
			}
			// Without a backend an evicted key is simply gone: a true miss.
			missing := 0
			for i := 0; i < n; i++ {
				if _, hit, err := s.Get("a", fmt.Sprintf("k%d", i)); errors.Is(err, store.ErrNotFound) {
					missing++
					if hit {
						t.Fatalf("k%d: ErrNotFound reported as a hit", i)
					}
				}
			}
			if missing == 0 {
				t.Fatal("no evicted key read back as a miss")
			}
		})
	}
}

// TestBackendReadThrough: with a backend every value survives eviction
// — a Get whose value was evicted fetches from the backing tier and
// re-admits — so the cache serves every key correctly while holding
// only a bounded subset.
func TestBackendReadThrough(t *testing.T) {
	const capacity = 2048
	be := store.NewMemBackend(0)
	s := buildStore(t, capacity, 1, 2, store.Config{
		Tenants: []string{"a"},
		Backend: be,
	})
	const n = 4 * capacity
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := s.Set("a", key, []byte("value-"+key)); err != nil {
			t.Fatal(err)
		}
	}
	if got := be.Len("a"); got != n {
		t.Fatalf("write-through: backend holds %d keys, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		v, _, err := s.Get("a", key)
		if err != nil {
			t.Fatalf("get %s through backend: %v", key, err)
		}
		if string(v) != "value-"+key {
			t.Fatalf("get %s = %q", key, v)
		}
	}
	st, err := s.Stats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.BackendGets == 0 {
		t.Fatalf("%d keys through %d lines never read through the backend: %+v", n, capacity, st)
	}
	if st.BackendSets != n {
		t.Fatalf("write-through count %d, want %d", st.BackendSets, n)
	}
	if st.Evictions == 0 {
		t.Fatalf("bounded store never evicted: %+v", st)
	}
	// A miss in the backend itself is still ErrNotFound at the boundary.
	if _, _, err := s.Get("a", "never-written"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("backend miss: %v, want ErrNotFound", err)
	}
}

// TestBoundedZipfSoak is the acceptance soak: a write-heavy Zipf
// hammer whose footprint far exceeds MaxBytes, from many goroutines
// (run under -race in CI). The byte bound must hold at every probe and
// at quiescence, the books must balance, and reads must be served —
// through the backend when the cached copy died.
func TestBoundedZipfSoak(t *testing.T) {
	const (
		maxBytes = 64 << 10
		valSize  = 64
		footKeys = 8192 // footprint ≈ 512 KiB, 8× the bound
	)
	// 512 lines: small enough that the Zipf tail forces real evictions
	// (not just cap rejections), so both bounding mechanisms are live.
	s := buildStore(t, 512, 4, 2, store.Config{
		Tenants:  []string{"zipf"},
		MaxBytes: maxBytes,
		Backend:  store.NewMemBackend(0),
	})

	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 8192
	val := make([]byte, valSize)
	for i := range val {
		val[i] = byte(i)
	}
	var wg sync.WaitGroup
	var overBound sync.Once
	var overErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			z := workload.NewZipf(footKeys, 1.2)
			rng := hash.NewSplitMix64(uint64(w)*0x9E3779B97F4A7C15 + 7)
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("k%d", z.Next(rng))
				if i%4 == 3 {
					if _, _, err := s.Get("zipf", key); err != nil && !errors.Is(err, store.ErrNotFound) {
						t.Error(err)
						return
					}
				} else if _, err := s.Set("zipf", key, val); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					if got := s.Bytes(); got > maxBytes {
						overBound.Do(func() { overErr = fmt.Errorf("bytes %d over bound %d mid-soak", got, maxBytes) })
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if overErr != nil {
		t.Fatal(overErr)
	}
	if got := s.Bytes(); got > maxBytes {
		t.Fatalf("bytes %d over bound %d at quiescence", got, maxBytes)
	}
	var tenantBytes int64
	var st store.TenantStats
	for _, ts := range s.StatsAll() {
		tenantBytes += ts.Bytes
		if ts.Tenant == "zipf" {
			st = ts
		}
	}
	if tenantBytes != s.Bytes() {
		t.Fatalf("tenant bytes %d != global counter %d", tenantBytes, s.Bytes())
	}
	if st.Evictions == 0 {
		t.Fatalf("a %d-byte footprint under a %d-byte bound never evicted: %+v", footKeys*valSize, maxBytes, st)
	}
	// Every key the backend holds must still be servable, bound intact.
	served := 0
	for i := int64(0); i < footKeys && served < 512; i++ {
		v, _, err := s.Get("zipf", fmt.Sprintf("k%d", uint64(i)*0x9E3779B9%footKeys))
		if errors.Is(err, store.ErrNotFound) {
			continue // never written by the Zipf draw
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != valSize {
			t.Fatalf("served value of %d bytes, want %d", len(v), valSize)
		}
		served++
	}
	if served == 0 {
		t.Fatal("soak wrote nothing servable")
	}
	if got := s.Bytes(); got > maxBytes {
		t.Fatalf("read-through re-admission broke the bound: %d > %d", got, maxBytes)
	}
}

// TestCloseRecorderRace pins the Close audit: concurrent Close, Close,
// StopRecording, SetRecorder, and in-flight traffic must not
// double-close the recorder or append to a closed writer (run under
// -race in CI), and recorder installation after Close is refused.
func TestCloseRecorderRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		s := buildStore(t, 4096, 2, 2, store.Config{Tenants: []string{"a"}})
		if err := s.StartRecording(t.TempDir()+"/r.trc", false); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 256; i++ {
					s.Set("a", fmt.Sprintf("k%d", i), []byte("v"))
				}
			}(w)
		}
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := s.Close(); err != nil && !errors.Is(err, store.ErrNotRecording) {
					t.Error(err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := s.StopRecording(); err != nil && !errors.Is(err, store.ErrNotRecording) {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		if err := s.SetRecorder(&countingRecorder{}); !errors.Is(err, store.ErrClosed) {
			t.Fatalf("SetRecorder after Close: %v, want ErrClosed", err)
		}
		if err := s.StartRecording(t.TempDir()+"/r2.trc", false); !errors.Is(err, store.ErrClosed) {
			t.Fatalf("StartRecording after Close: %v, want ErrClosed", err)
		}
	}
}

// TestBoundedMaxTenants pins the registration cap below the partition
// count, including the no-mint-on-Get rule.
func TestBoundedMaxTenants(t *testing.T) {
	s := buildStore(t, 4096, 1, 4, store.Config{MaxTenants: 2})
	if _, err := s.Set("a", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Set("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Set("c", "k", []byte("v")); !errors.Is(err, store.ErrTenantCapacity) {
		t.Fatalf("third tenant past cap: %v, want ErrTenantCapacity", err)
	}
	if _, _, err := s.Get("d", "k"); !errors.Is(err, store.ErrUnknownTenant) {
		t.Fatalf("get must not mint: %v, want ErrUnknownTenant", err)
	}
	if names := s.Tenants(); len(names) != 2 {
		t.Fatalf("roster grew past the cap: %v", names)
	}
}

// TestRegisterUnderEvictionAndEpochs is the lock-order watchdog for
// tenant registration. Registering a tenant with
// configured Weights/LineBounds holds the store's tenant lock while it
// takes the adaptive cache's epoch lock; an epoch step holds the epoch
// lock while it takes shard locks; the eviction hook runs under a shard
// lock. If the hook also took the tenant lock the three would form a
// cycle and this test would wedge: weighted tenants auto-register while
// two setters force evictions and a third goroutine forces epochs.
func TestRegisterUnderEvictionAndEpochs(t *testing.T) {
	const (
		rounds  = 12
		weighed = 7
	)
	weights := make(map[string]float64, weighed)
	bounds := make(map[string]store.LineBounds, weighed)
	for i := 0; i < weighed; i++ {
		weights[fmt.Sprintf("t%d", i)] = float64(i + 2)
		bounds[fmt.Sprintf("t%d", i)] = store.LineBounds{Min: 16}
	}
	for round := 0; round < rounds; round++ {
		s := buildStore(t, 2048, 2, weighed+1, store.Config{
			Tenants:    []string{"a"},
			MaxBytes:   64 << 10,
			Weights:    weights,
			LineBounds: bounds,
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						// A key space far over the line capacity: nearly
						// every Set evicts, so the hook runs constantly.
						if _, err := s.Set("a", fmt.Sprintf("k%d-%d", w, i%20000), []byte("v")); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					s.Cache().ForceEpoch()
				}
			}()
			// Each registration waits for fresh evictions, so it always
			// lands while the hook and the epoch loop are both running.
			var seen int64
			for i := 0; i < weighed; i++ {
				for {
					st, err := s.Stats("a")
					if err != nil {
						t.Error(err)
						break
					}
					if st.Evictions >= seen+64 {
						seen = st.Evictions
						break
					}
					runtime.Gosched()
				}
				if _, err := s.Set(fmt.Sprintf("t%d", i), "k", []byte("v")); err != nil {
					t.Error(err)
				}
			}
			stop.Store(true)
			wg.Wait()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("round %d: registration deadlocked against eviction and epoch steps:\n%s",
				round, buf[:runtime.Stack(buf, true)])
		}
	}
}
