package store_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"talus/internal/store"
)

// fakeClock is a settable time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTTLExpiry(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{})
	clock := newFakeClock()
	s.SetNow(clock.Now)

	if _, err := s.SetTTL("alice", "k", []byte("value"), time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.Get("alice", "k"); err != nil || string(v) != "value" {
		t.Fatalf("before expiry: %q, %v", v, err)
	}
	clock.Advance(999 * time.Millisecond)
	if _, _, err := s.Get("alice", "k"); err != nil {
		t.Fatalf("1ms before deadline: %v", err)
	}
	clock.Advance(2 * time.Millisecond)
	if _, _, err := s.Get("alice", "k"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("after deadline: %v, want ErrNotFound", err)
	}
	st, err := s.Stats("alice")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", st.Expirations)
	}
	if st.Bytes != 0 || st.Keys != 0 {
		t.Fatalf("expired value still held: %d keys, %d bytes", st.Keys, st.Bytes)
	}
	if got := s.Bytes(); got != 0 {
		t.Fatalf("store bytes after expiry = %d, want 0", got)
	}
	// Expiry is counted once: the repeat Get is a plain value miss.
	s.Get("alice", "k")
	if st, _ = s.Stats("alice"); st.Expirations != 1 {
		t.Fatalf("Expirations after repeat Get = %d, want 1", st.Expirations)
	}
}

// TestOnlyDeadlinesReadTheClock: a Get of a value without a TTL is
// served without reading the clock; one with a TTL reads it.
func TestOnlyDeadlinesReadTheClock(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{})
	clock := newFakeClock()
	var reads int
	s.SetNow(func() time.Time { reads++; return clock.Now() })
	if _, err := s.Set("alice", "plain", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetTTL("alice", "timed", []byte("v"), time.Hour); err != nil {
		t.Fatal(err)
	}
	reads = 0
	for i := 0; i < 4; i++ {
		if _, hit, err := s.Get("alice", "plain"); !hit || err != nil {
			t.Fatalf("Get plain: hit %v, %v", hit, err)
		}
	}
	if reads != 0 {
		t.Fatalf("4 Gets of a value without a TTL read the clock %d times", reads)
	}
	if _, hit, err := s.Get("alice", "timed"); !hit || err != nil {
		t.Fatalf("Get timed: hit %v, %v", hit, err)
	}
	if reads == 0 {
		t.Fatal("a Get of a value with a TTL never read the clock")
	}
}

func TestDefaultTTL(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{DefaultTTL: time.Minute})
	clock := newFakeClock()
	s.SetNow(clock.Now)

	// A plain Set inherits the store-wide default.
	if _, err := s.Set("alice", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(59 * time.Second)
	if _, _, err := s.Get("alice", "k"); err != nil {
		t.Fatalf("before default deadline: %v", err)
	}
	clock.Advance(2 * time.Second)
	if _, _, err := s.Get("alice", "k"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("after default deadline: %v, want ErrNotFound", err)
	}

	// A per-entry TTL overrides the default in either direction.
	if _, err := s.SetTTL("alice", "long", []byte("v"), time.Hour); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	if _, _, err := s.Get("alice", "long"); err != nil {
		t.Fatalf("per-entry TTL overridden by default: %v", err)
	}
}

func TestSetRefreshesAndClearsTTL(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{})
	clock := newFakeClock()
	s.SetNow(clock.Now)

	// A re-Set with a TTL restarts the clock.
	s.SetTTL("alice", "k", []byte("v1"), time.Second)
	clock.Advance(600 * time.Millisecond)
	s.SetTTL("alice", "k", []byte("v2"), time.Second)
	clock.Advance(600 * time.Millisecond) // 1.2s after the first write
	if v, _, err := s.Get("alice", "k"); err != nil || string(v) != "v2" {
		t.Fatalf("refreshed TTL expired early: %q, %v", v, err)
	}

	// A re-Set without a TTL (and no DefaultTTL) clears the deadline.
	s.Set("alice", "k", []byte("v3"))
	clock.Advance(24 * time.Hour)
	if v, _, err := s.Get("alice", "k"); err != nil || string(v) != "v3" {
		t.Fatalf("cleared TTL still expired: %q, %v", v, err)
	}

	if _, err := s.SetTTL("alice", "k", []byte("v"), -time.Second); !errors.Is(err, store.ErrBadTTL) {
		t.Fatalf("negative ttl: %v, want ErrBadTTL", err)
	}
}

func TestTTLReadThroughBackend(t *testing.T) {
	backend := store.NewMemBackend(0)
	s := buildStore(t, 8192, 1, 2, store.Config{Backend: backend})
	clock := newFakeClock()
	s.SetNow(clock.Now)

	if _, err := s.SetTTL("alice", "k", []byte("durable"), time.Second); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	// The cached copy expired, but the write went through to the
	// backend: the Get reads through and re-admits.
	v, _, err := s.Get("alice", "k")
	if err != nil || string(v) != "durable" {
		t.Fatalf("read-through after expiry: %q, %v", v, err)
	}
	st, _ := s.Stats("alice")
	if st.Expirations != 1 || st.BackendGets == 0 {
		t.Fatalf("expirations = %d, backendGets = %d; want 1, > 0", st.Expirations, st.BackendGets)
	}
	// The re-admitted copy has no per-entry TTL (DefaultTTL is zero):
	// it stays until evicted.
	clock.Advance(24 * time.Hour)
	if _, _, err := s.Get("alice", "k"); err != nil {
		t.Fatalf("re-admitted value expired again: %v", err)
	}
}

func TestNodeStats(t *testing.T) {
	s := buildStore(t, 8192, 1, 2, store.Config{})
	n := s.Node()
	if n.ID == "" || n.PID <= 0 || n.GoMaxProcs < 1 || n.StartTime.IsZero() {
		t.Fatalf("default node stats incomplete: %+v", n)
	}

	named := buildStore(t, 8192, 1, 2, store.Config{NodeID: "node-a"})
	if got := named.Node().ID; got != "node-a" {
		t.Fatalf("NodeID = %q, want node-a", got)
	}
}

// TestExpiredReadThroughStaysEvictable: a Get that found an expired
// value and read it back through the Backend used to invalidate the
// key's line after its own access, then re-admit the backend copy onto
// that line — which was no longer resident, so no eviction could ever
// release the value. 200 000 Sets of other keys later, the key still
// hit. The re-admitted copy must live on a resident line and die with
// it, exactly as it does without the TTL.
func TestExpiredReadThroughStaysEvictable(t *testing.T) {
	s := buildStore(t, 4096, 1, 2, store.Config{Backend: store.NewMemBackend(0)})
	clock := newFakeClock()
	s.SetNow(clock.Now)

	if _, err := s.SetTTL("alice", "k", []byte("v"), time.Second); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	if v, hit, err := s.Get("alice", "k"); err != nil || hit || string(v) != "v" {
		t.Fatalf("expired Get = %q, hit %v, %v; want a read-through miss", v, hit, err)
	}
	for i := 0; i < 200_000; i++ {
		if _, err := s.Set("alice", fmt.Sprintf("other-%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := s.Stats("alice"); st.Evictions < 100_000 {
		t.Fatalf("%d evictions: the churn did not cycle the cache", st.Evictions)
	}
	if _, hit, err := s.Get("alice", "k"); err != nil || hit {
		t.Fatalf("after the churn: Get = hit %v, %v; the re-admitted value outlived every eviction", hit, err)
	}
}
