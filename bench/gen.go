package main

import (
	"encoding/binary"
	"fmt"

	"talus/internal/hash"
)

// inputs is everything a run feeds the program, generated from the
// seed before any clock starts: key strings, value sizes and each
// client's request stream (warm-up followed by the timed region, one
// continuous draw so the timed region starts in steady state).
type inputs struct {
	spec     *spec
	keys     []string // key index → key string
	tenantOf []uint8  // key index → index into spec.tenants
	sizes    []uint16 // key index → value size in bytes (a multiple of 8)
	warm     [][]op   // per client
	timed    [][]op   // per client
	digest   uint64   // FNV-1a over every stream, in client order
}

// generate draws the request streams for the given op counts (totals
// over all clients, split evenly).
func generate(s *spec, seed uint64, clients, warmOps, timedOps int) *inputs {
	n := s.numKeys()
	in := &inputs{
		spec:     s,
		keys:     make([]string, n),
		tenantOf: make([]uint8, n),
		sizes:    make([]uint16, n),
		warm:     make([][]op, clients),
		timed:    make([][]op, clients),
	}
	k := 0
	for t, cnt := range s.tenantKeys {
		for i := uint32(0); i < cnt; i++ {
			in.keys[k] = fmt.Sprintf("k%07d", k)
			in.tenantOf[k] = uint8(t)
			in.sizes[k] = uint16(s.valueSize(uint32(k)))
			k++
		}
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	in.digest = offset64
	for c := 0; c < clients; c++ {
		rng := hash.NewSplitMix64(hash.Mix64(seed) + uint64(c)*0x9E3779B97F4A7C15)
		pick := s.newPicker(c, clients)
		w, t := warmOps/clients, timedOps/clients
		stream := make([]op, w+t)
		for i := range stream {
			kind, key := pick(rng)
			stream[i] = mkOp(kind, key)
			in.digest = (in.digest ^ uint64(stream[i])) * prime64
		}
		in.warm[c], in.timed[c] = stream[:w:w], stream[w:]
	}
	return in
}

func (in *inputs) tenant(key uint32) string { return in.spec.tenants[in.tenantOf[key]] }

// Values are a pure function of (key, version): word 0 carries both,
// every later word is a mix of word 0 and its position. A reply is
// right only if every byte matches, and the backend can regenerate any
// value it is asked for without storing it.

const versionDeleted = 1 << 31 // flag on a version: the key was deleted after this version

func fillValue(dst []byte, key, version uint32) {
	w0 := uint64(key)<<32 | uint64(version)
	binary.LittleEndian.PutUint64(dst, w0)
	for j := 8; j+8 <= len(dst); j += 8 {
		binary.LittleEndian.PutUint64(dst[j:], hash.Mix64(w0+uint64(j)))
	}
}

func checkValue(b []byte, key, version uint32, size int) bool {
	if len(b) != size {
		return false
	}
	w0 := uint64(key)<<32 | uint64(version)
	if binary.LittleEndian.Uint64(b) != w0 {
		return false
	}
	for j := 8; j+8 <= len(b); j += 8 {
		if binary.LittleEndian.Uint64(b[j:]) != hash.Mix64(w0+uint64(j)) {
			return false
		}
	}
	return true
}

// keyIndex recovers the key index from a key string ("k0001234").
func keyIndex(key string) (uint32, bool) {
	if len(key) != 8 || key[0] != 'k' {
		return 0, false
	}
	var n uint32
	for i := 1; i < 8; i++ {
		d := key[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + uint32(d)
	}
	return n, true
}

// model is the sequential model of the keys: the last version written
// to each and whether a Delete followed it. Clients own disjoint keys,
// so they share one table without racing.
type model struct{ ver []uint32 }

func newModel(keys int) *model { return &model{ver: make([]uint32, keys)} }

// expect returns the version a Get of key must return, and false when
// the model says the key is absent.
func (m *model) expect(key uint32) (uint32, bool) {
	v := m.ver[key]
	return v, v != 0 && v&versionDeleted == 0
}

// nextVersion is the version the next Set of key writes.
func (m *model) nextVersion(key uint32) uint32 { return m.ver[key]&^versionDeleted + 1 }

func (m *model) set(key, version uint32) { m.ver[key] = version }
func (m *model) delete(key uint32)       { m.ver[key] |= versionDeleted }
