package core

import (
	"testing"

	"talus/internal/cache"
	"talus/internal/curve"
	"talus/internal/hash"
)

// cliffCurve has a plateau-then-cliff shape whose hull strictly improves
// on the raw curve at mid-plateau targets, so configurations are
// non-degenerate.
// Its hull is (0,40)→(1024,18)→(3000,2)→(8192,2), so mid-plateau targets
// get a nonzero α anchor (the α shadow partition actually holds lines).
func plateauCliffCurve() *curve.Curve {
	return curve.MustNew([]curve.Point{
		{Size: 0, MPKI: 40},
		{Size: 1024, MPKI: 18},
		{Size: 2999, MPKI: 17.9},
		{Size: 3000, MPKI: 2},
		{Size: 8192, MPKI: 2},
	})
}

func TestFailedTransitionCommitsNothing(t *testing.T) {
	// When the inner cache rejects the new sizes, Config and ShadowSizes
	// must keep reporting the configuration the datapath actually runs.
	inner, err := cache.NewIdeal(4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewShadowedCache(inner, 1, DefaultMargin, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Reconfigure([]int64{3000}, []*curve.Curve{plateauCliffCurve()}); err != nil {
		t.Fatal(err)
	}
	want := sc.Config(0)
	wantShadow := sc.ShadowSizes()

	// An over-committing allocation: the ideal cache rejects it.
	if err := sc.Reconfigure([]int64{5000}, []*curve.Curve{plateauCliffCurve()}); err == nil {
		t.Fatal("over-committed reconfigure must fail")
	}
	if got := sc.Config(0); got != want {
		t.Errorf("failed transition leaked config: %+v != %+v", got, want)
	}
	for i, s := range sc.ShadowSizes() {
		if s != wantShadow[i] {
			t.Fatalf("failed transition leaked shadow sizes: %v != %v", sc.ShadowSizes(), wantShadow)
		}
	}
}

func TestSamplerRateShrinkIsSubsetMonotone(t *testing.T) {
	// The transition-safety argument relies on the sampler's limit
	// register being threshold-monotone: shrinking ρ must shrink the α
	// sampled set to a subset, never re-route a β address to α.
	s := hash.NewSampler(99)
	s.SetRate(0.8)
	inOld := make(map[uint64]bool)
	for a := uint64(0); a < 4096; a++ {
		inOld[a] = s.ToAlpha(a)
	}
	s.SetRate(0.3)
	for a := uint64(0); a < 4096; a++ {
		if s.ToAlpha(a) && !inOld[a] {
			t.Fatalf("addr %d entered α when ρ shrank: sampled sets not nested", a)
		}
	}
}

func TestTransitionKeepsResidentLines(t *testing.T) {
	// Reconfiguring must not flush residency: after shrinking ρ, every
	// address that still routes to α was already resident there (nested
	// sampled sets) and must hit immediately, with its hit accounted to
	// the same logical partition.
	sc := newShadowed(t, 8192, 1)

	// Start degenerate (ρ = 1, everything to α) over a small working set
	// that fits the α shadow partition.
	if err := sc.Reconfigure([]int64{2000}, []*curve.Curve{nil}); err != nil {
		t.Fatal(err)
	}
	const ws = 1024
	for round := 0; round < 4; round++ {
		for a := uint64(0); a < ws; a++ {
			sc.Access(a, 0)
		}
	}

	// Shrink ρ via a cliffy curve: part of the stream re-routes to β.
	if err := sc.Reconfigure([]int64{2000}, []*curve.Curve{plateauCliffCurve()}); err != nil {
		t.Fatal(err)
	}
	cfg := sc.Config(0)
	if cfg.Degenerate || cfg.Rho >= 1 {
		t.Fatalf("test needs a non-degenerate shrink, got %+v", cfg)
	}

	// Every address still routed to α must hit: resident since before the
	// transition, and never flushed by it.
	var alphaAccesses, alphaHits int
	for a := uint64(0); a < ws; a++ {
		if !sc.samplers[0].ToAlpha(a) {
			continue
		}
		alphaAccesses++
		if sc.Access(a, 0) {
			alphaHits++
		}
	}
	if alphaAccesses == 0 {
		t.Fatal("no addresses routed to α; widen the working set")
	}
	if alphaHits != alphaAccesses {
		t.Fatalf("α residency lost across transition: %d/%d hits", alphaHits, alphaAccesses)
	}
}
