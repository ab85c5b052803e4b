package hash

import (
	"math"
	"testing"
	"testing/quick"
)

func TestH3Deterministic(t *testing.T) {
	a := NewH3(42, 8)
	b := NewH3(42, 8)
	for i := uint64(0); i < 1000; i++ {
		if a.Hash(i) != b.Hash(i) {
			t.Fatalf("same-seed hashes disagree at %d", i)
		}
	}
	c := NewH3(43, 8)
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if a.Hash(i) == c.Hash(i) {
			same++
		}
	}
	// Two independent 8-bit hash functions agree ~1/256 of the time.
	if same > 30 {
		t.Fatalf("different seeds too correlated: %d/1000 collisions", same)
	}
}

func TestH3Width(t *testing.T) {
	for _, w := range []uint{1, 4, 8, 16, 32, 64} {
		h := NewH3(7, w)
		var limit uint64
		if w == 64 {
			limit = ^uint64(0)
		} else {
			limit = (1 << w) - 1
		}
		for i := uint64(0); i < 4096; i++ {
			if v := h.Hash(i * 2654435761); v > limit {
				t.Fatalf("width %d produced %d > %d", w, v, limit)
			}
		}
	}
}

func TestH3ZeroKey(t *testing.T) {
	// H3 of the zero key is always 0 (XOR of nothing): a known property
	// of the construction, harmless because line addresses are never 0
	// in the simulator's address spaces.
	if got := NewH3(99, 8).Hash(0); got != 0 {
		t.Fatalf("H3(0) = %d, want 0", got)
	}
}

func TestH3Uniformity(t *testing.T) {
	// Sequential keys must hash near-uniformly over 256 buckets: chi² test
	// with generous bounds.
	h := NewH3(12345, 8)
	const n = 1 << 16
	var buckets [256]int
	for i := uint64(0); i < n; i++ {
		buckets[h.Hash(i)]++
	}
	expected := float64(n) / 256
	chi2 := 0.0
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 255 degrees of freedom: mean 255, stddev ~22.6. Allow ±8σ.
	if chi2 > 255+8*22.6 {
		t.Fatalf("chi2 = %g, too non-uniform", chi2)
	}
}

func TestH3Linearity(t *testing.T) {
	// H3 is linear over GF(2): h(a XOR b) = h(a) XOR h(b).
	h := NewH3(5, 16)
	f := func(a, b uint64) bool {
		return h.Hash(a^b) == h.Hash(a)^h.Hash(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestH3PanicsOnBadWidth(t *testing.T) {
	for _, w := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d should panic", w)
				}
			}()
			NewH3(1, w)
		}()
	}
}

func TestSamplerRates(t *testing.T) {
	s := NewSampler(777)
	const n = 1 << 16
	for _, rho := range []float64{0, 0.25, 1.0 / 3, 0.5, 0.75, 1} {
		s.SetRate(rho)
		count := 0
		for i := uint64(1); i <= n; i++ {
			if s.ToAlpha(i * 2654435761) {
				count++
			}
		}
		got := float64(count) / n
		// 8-bit limit register quantizes ρ to 1/256; allow quantization
		// plus sampling noise.
		if math.Abs(got-rho) > 0.01 {
			t.Errorf("rate %g sampled %g", rho, got)
		}
		if math.Abs(s.Rate()-rho) > 1.0/256 {
			t.Errorf("Rate() = %g, want ≈ %g", s.Rate(), rho)
		}
	}
}

func TestSamplerDeterministicPerAddress(t *testing.T) {
	// The same address must always route to the same partition at a fixed
	// rate: Talus depends on this to keep each line's stream assignment
	// stable between reconfigurations.
	s := NewSampler(1)
	s.SetRate(0.5)
	for i := uint64(0); i < 1000; i++ {
		first := s.ToAlpha(i)
		for k := 0; k < 3; k++ {
			if s.ToAlpha(i) != first {
				t.Fatal("sampler routing must be deterministic")
			}
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the splitmix64 reference implementation with
	// seed 0: first three outputs.
	s := NewSplitMix64(0)
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64Float64Range(t *testing.T) {
	s := NewSplitMix64(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	s := NewSplitMix64(3)
	for _, n := range []uint64{1, 2, 10, 1000, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	s := NewSplitMix64(4)
	const buckets = 16
	const n = 1 << 16
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[s.Uint64n(buckets)]++
	}
	expected := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.1 {
			t.Fatalf("bucket %d count %d far from %g", b, c, expected)
		}
	}
}

func TestPerm(t *testing.T) {
	s := NewSplitMix64(8)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPanicsOnZeroN(t *testing.T) {
	s := NewSplitMix64(1)
	for _, f := range []func(){
		func() { s.Uint64n(0) },
		func() { s.Intn(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestReduceBounds(t *testing.T) {
	for _, n := range []int{1, 3, 16, 4096, 1000003} {
		for i := uint64(0); i < 4096; i++ {
			if v := Reduce(i*0x9E3779B97F4A7C15, n); v < 0 || v >= n {
				t.Fatalf("Reduce out of range: %d for n=%d", v, n)
			}
		}
	}
}

func TestReduceSequentialWindowUniform(t *testing.T) {
	// Regression test for a subtle pathology: with a power-of-two set
	// count, `hash % sets` keeps only the low output bits of H3; over a
	// small sequential address window (a scan) the GF(2) submatrix into
	// those bits can be rank-deficient for unlucky seeds, collapsing the
	// stream onto half (or fewer) of the sets. Reduce must spread a
	// sequential window over all buckets for EVERY seed.
	const sets = 4096
	const window = 1 << 17 // a 75K-line scan fits in 17 input bits
	for seed := uint64(0); seed < 20; seed++ {
		h := NewH3(seed*0x1234567+1, 64)
		used := make(map[int]bool, sets)
		for a := uint64(0); a < window; a += 7 {
			used[Reduce(h.Hash(a), sets)] = true
		}
		// With ~18.7K samples over 4096 buckets, expect nearly all
		// buckets touched; rank collapse would leave ≤ 2048.
		if len(used) < sets*9/10 {
			t.Fatalf("seed %d: sequential window touched only %d/%d sets", seed, len(used), sets)
		}
	}
}

// TestFNV64aVectors checks the published FNV-1a 64-bit test vectors and
// that a string and its bytes hash alike.
func TestFNV64aVectors(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	} {
		if got := FNV64a(c.in); got != c.want {
			t.Errorf("FNV64a(%q) = %#x, want %#x", c.in, got, c.want)
		}
		if got := FNV64a([]byte(c.in)); got != c.want {
			t.Errorf("FNV64a([]byte(%q)) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
