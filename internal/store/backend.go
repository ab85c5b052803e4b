// Backend is the pluggable backing tier behind the store: the
// "database" a cache sits in front of. With one configured the store is
// write-through (Set persists to the backend before the cached copy is
// updated) and read-through (a Get whose value was evicted or never
// admitted fetches from the backend and re-admits), so evicting a value
// costs a modeled backend round-trip instead of data loss — exactly the
// cost structure whose hit-ratio sensitivity Talus's convexified
// partitioning optimizes.

package store

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBackend wraps failures of the backing tier so the front-end can
// distinguish "your request is wrong" (4xx) from "the tier behind the
// cache failed" (502).
var ErrBackend = errors.New("store: backend error")

// Backend is the backing-store contract. Get returns ErrNotFound
// (possibly wrapped) for absent keys. Implementations must be safe for
// concurrent use; the store calls them outside all of its locks.
type Backend interface {
	Get(tenant, key string) ([]byte, error)
	Set(tenant, key string, value []byte) error
	Delete(tenant, key string) error
}

// MemBackend is the in-memory reference Backend: a concurrent map with
// a modeled per-operation latency, standing in for the database tier in
// experiments so backend cost is controlled and deterministic.
type MemBackend struct {
	latency time.Duration

	mu   sync.RWMutex
	vals map[string]map[string][]byte // tenant → key → value

	gets, sets, deletes int64 // under mu
}

// NewMemBackend builds an empty in-memory backend that sleeps latency
// on every operation (0 disables the delay).
func NewMemBackend(latency time.Duration) *MemBackend {
	if latency < 0 {
		latency = 0
	}
	return &MemBackend{latency: latency, vals: make(map[string]map[string][]byte)}
}

func (b *MemBackend) delay() {
	if b.latency > 0 {
		time.Sleep(b.latency)
	}
}

// Get returns a copy of the stored value, or ErrNotFound.
func (b *MemBackend) Get(tenant, key string) ([]byte, error) {
	b.delay()
	b.mu.Lock()
	b.gets++
	v, ok := b.vals[tenant][key]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, nil
}

// Set stores a copy of value under (tenant, key).
func (b *MemBackend) Set(tenant, key string, value []byte) error {
	cp := make([]byte, len(value))
	copy(cp, value)
	b.delay()
	b.mu.Lock()
	b.sets++
	m := b.vals[tenant]
	if m == nil {
		m = make(map[string][]byte)
		b.vals[tenant] = m
	}
	m[key] = cp
	b.mu.Unlock()
	return nil
}

// Delete removes (tenant, key); absent keys are a no-op.
func (b *MemBackend) Delete(tenant, key string) error {
	b.delay()
	b.mu.Lock()
	b.deletes++
	delete(b.vals[tenant], key)
	b.mu.Unlock()
	return nil
}

// Len returns the number of keys stored for tenant.
func (b *MemBackend) Len(tenant string) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.vals[tenant])
}

// Ops returns the operation counts (gets, sets, deletes) served so far.
func (b *MemBackend) Ops() (gets, sets, deletes int64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.gets, b.sets, b.deletes
}
