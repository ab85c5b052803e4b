package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"talus/internal/store"
)

// backend is the zero-latency backing tier behind every store under
// test, and the bench's own counter of user-visible misses: a timed Get
// is a hit exactly when the store answered it without calling Get here.
// It keeps one version word per key and regenerates values on demand, so
// the heap the benchmark measures is the cache's, not the database's.
type backend struct {
	in  *inputs
	ver []atomic.Uint32

	gets atomic.Int64 // calls to Get: the user-visible misses

	tr *tracer // traced runs: a span per call
}

func newBackend(in *inputs) *backend {
	return &backend{in: in, ver: make([]atomic.Uint32, len(in.keys))}
}

var _ store.Backend = (*backend)(nil)

func (b *backend) Get(tenant, key string) ([]byte, error) {
	defer b.tr.end(b.tr.begin(spanBackend))
	b.gets.Add(1)
	k, ok := keyIndex(key)
	if !ok || int(k) >= len(b.ver) {
		return nil, fmt.Errorf("%w: %q", store.ErrNotFound, key)
	}
	v := b.ver[k].Load()
	if v == 0 || v&versionDeleted != 0 {
		return nil, fmt.Errorf("%w: %q", store.ErrNotFound, key)
	}
	// A fresh slice per call: the store keeps what Get returns.
	buf := make([]byte, b.in.sizes[k])
	fillValue(buf, k, v)
	return buf, nil
}

func (b *backend) Set(tenant, key string, value []byte) error {
	defer b.tr.end(b.tr.begin(spanBackend))
	k, ok := keyIndex(key)
	if !ok || int(k) >= len(b.ver) || len(value) < 8 {
		return fmt.Errorf("bench backend: unexpected write %q (%d bytes)", key, len(value))
	}
	w0 := binary.LittleEndian.Uint64(value)
	if uint32(w0>>32) != k {
		return fmt.Errorf("bench backend: value for key %d written under %q", w0>>32, key)
	}
	b.ver[k].Store(uint32(w0))
	return nil
}

func (b *backend) Delete(tenant, key string) error {
	defer b.tr.end(b.tr.begin(spanBackend))
	if k, ok := keyIndex(key); ok && int(k) < len(b.ver) {
		b.ver[k].Store(b.ver[k].Load() | versionDeleted)
	}
	return nil
}

// bare adapts the backend to the client's view of a store: what a run
// costs when the cache in front of the backend is free. Driving it
// measures the harness itself (bench.client_us).
type bare struct{ b *backend }

func (s bare) Get(tenant, key string) ([]byte, bool, error) {
	v, err := s.b.Get(tenant, key)
	return v, false, err
}

func (s bare) SetTTL(tenant, key string, value []byte, _ time.Duration) (bool, error) {
	return false, s.b.Set(tenant, key, value)
}

func (s bare) Delete(tenant, key string) (bool, error) {
	return false, s.b.Delete(tenant, key)
}
