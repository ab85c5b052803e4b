package hash

import (
	"math/bits"
	"sync/atomic"
)

// H3 is a single member of the H3 universal hash family over 64-bit keys,
// producing values of up to 64 bits. The zero value is not useful; create
// instances with NewH3.
//
// The per-bit XOR matrix is folded into eight 256-entry byte tables
// (tab[p][b] = XOR of the matrix rows selected by byte value b at byte
// position p), turning the 64 conditional XORs of the textbook
// construction into at most eight table lookups per hash. The function
// computed is bit-identical to the per-bit form.
type H3 struct {
	tab  [8][256]uint64
	mask uint64 // restricts output to the configured width
}

// NewH3 returns an H3 hash with the given output width in bits (1–64),
// with its matrix drawn deterministically from seed. Two H3 instances with
// the same seed and width are identical; different seeds give independent
// family members.
func NewH3(seed uint64, widthBits uint) *H3 {
	if widthBits == 0 || widthBits > 64 {
		panic("hash: H3 width must be in [1,64] bits")
	}
	h := &H3{}
	if widthBits == 64 {
		h.mask = ^uint64(0)
	} else {
		h.mask = (uint64(1) << widthBits) - 1
	}
	s := NewSplitMix64(seed)
	var q [64]uint64 // one random word per input bit
	for i := range q {
		q[i] = s.Next() & h.mask
	}
	for p := 0; p < 8; p++ {
		for b := 1; b < 256; b++ {
			var v uint64
			for j := 0; j < 8; j++ {
				if b&(1<<j) != 0 {
					v ^= q[p*8+j]
				}
			}
			h.tab[p][b] = v
		}
	}
	return h
}

// Hash returns the H3 hash of key, an integer in [0, 2^width).
func (h *H3) Hash(key uint64) uint64 {
	return h.tab[0][key&0xFF] ^
		h.tab[1][key>>8&0xFF] ^
		h.tab[2][key>>16&0xFF] ^
		h.tab[3][key>>24&0xFF] ^
		h.tab[4][key>>32&0xFF] ^
		h.tab[5][key>>40&0xFF] ^
		h.tab[6][key>>48&0xFF] ^
		h.tab[7][key>>56&0xFF]
}

// Reduce maps a 64-bit hash to [0, n) by multiply-shift (the high word of
// hash × n). Unlike hash % n with a power-of-two n — which keeps only the
// low log2(n) output bits and can collapse when a workload's addresses
// span a small input window whose GF(2) submatrix into those bits is
// rank-deficient — Reduce mixes all 64 output bits into the index.
func Reduce(hashVal uint64, n int) int {
	hi, _ := bits.Mul64(hashVal, uint64(n))
	return int(hi)
}

// Sampler routes line addresses between two shadow partitions using an
// 8-bit H3 hash and a limit register, exactly as in the paper's hardware
// implementation (Fig. 7b). An address goes to the α partition when
// hash(addr) < limit, otherwise to the β partition. Limit 0 sends
// everything to β; limit 256 sends everything to α.
//
// The limit register is atomic, mirroring how hardware reprograms it
// between accesses: SetRate may race with concurrent ToAlpha calls
// without a data race (each access simply observes the old or the new
// rate). The H3 matrix itself is immutable after construction, so a
// Sampler is safe for concurrent use by multiple goroutines. Samplers
// must not be copied after first use.
type Sampler struct {
	h     *H3
	limit atomic.Uint32 // in [0, 256]
}

// NewSampler creates a Sampler with an 8-bit H3 hash drawn from seed.
// The initial limit is 256 (all accesses to α), which corresponds to an
// unpartitioned (Talus-disabled) configuration.
func NewSampler(seed uint64) *Sampler {
	s := &Sampler{h: NewH3(seed, 8)}
	s.limit.Store(256)
	return s
}

// SetRate programs the limit register so that approximately a fraction rho
// of addresses sample into α. rho is clamped to [0, 1].
func (s *Sampler) SetRate(rho float64) {
	switch {
	case rho <= 0:
		s.limit.Store(0)
	case rho >= 1:
		s.limit.Store(256)
	default:
		s.limit.Store(uint32(rho*256 + 0.5))
	}
}

// Rate returns the currently programmed sampling fraction, limit/256.
func (s *Sampler) Rate() float64 { return float64(s.limit.Load()) / 256 }

// ToAlpha reports whether addr routes to the α shadow partition.
func (s *Sampler) ToAlpha(addr uint64) bool {
	return uint32(s.h.Hash(addr)) < s.limit.Load()
}

// SplitMix64 is the splitmix64 PRNG (Steele, Lea & Flood). It passes
// BigCrush, needs only one uint64 of state, and every distinct seed yields
// an independent-looking stream, which makes it ideal for deriving the many
// deterministic seeds the simulator needs (one per workload, monitor,
// sampler...). It is also used directly as the simulator's random source to
// keep experiments reproducible across platforms, unlike math/rand whose
// stream is not guaranteed stable between Go releases.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Next returns the next 64 pseudo-random bits.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return Mix64(s.state)
}

// Mix64 applies the splitmix64 finalizer to x: a fast, bijective mix
// with full avalanche into every output bit. Unlike the H3 family —
// which is linear over GF(2), so linear relations among input bits
// survive into every output bit — Mix64's multiplies destroy linear
// structure. That matters when two hashes of the *same* address feed a
// comparison and an index (the monitor bank's sampling filter and set
// index): if both were H3 members, an unlucky seed pair can make the
// sampled subset systematically unbalanced across sets.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Uint64n returns a uniform value in [0, n). n must be positive.
func (s *SplitMix64) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("hash: Uint64n with n == 0")
	}
	// Multiply-shift rejection-free reduction (Lemire). The tiny modulo
	// bias is irrelevant at the simulator's n << 2^64 ranges.
	hi, _ := bits.Mul64(s.Next(), n)
	return hi
}

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). n must be positive.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("hash: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Perm returns a uniformly random permutation of [0, n), like rand.Perm.
func (s *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
