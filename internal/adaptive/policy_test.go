package adaptive_test

import (
	"slices"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/cache"
	"talus/internal/core"
	"talus/internal/hash"
)

// TestLoopIsBlindToArrayPolicy is why adaptive.Build offers no policy:
// the loop's only input is its LRU-stack monitors, which see the stream
// before the arrays do. Two stacks built by hand, one over LRU arrays
// and one over SRRIP, fed the same stream, make the same allocation and
// program the same shadow configuration after every epoch — even though
// their arrays hit differently — so the Eq. 5 promise describes the LRU
// array alone.
func TestLoopIsBlindToArrayPolicy(t *testing.T) {
	const (
		capacity = 8192
		logical  = 2
		seed     = 31
		scan     = 6144 // partition 0: a cyclic scan with a cliff past its fair share
		reuse    = 6144 // partition 1: skewed reuse, hot lines low
	)
	build := func(policy string) *adaptive.Cache {
		inner, err := cache.BuildSharded("vantage", capacity, 16, 1, 2*logical, policy, logical, seed)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := core.NewShadowedCache(inner, logical, core.DefaultMargin, seed^0xADA97)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := adaptive.New(sc, adaptive.Config{EpochAccesses: 1 << 40, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return ac
	}
	lru, srrip := build("LRU"), build("SRRIP")

	rng := hash.NewSplitMix64(seed)
	buf := make([][]uint64, logical)
	for p := range buf {
		buf[p] = make([]uint64, 1<<14)
	}
	var pos uint64
	var lruHits, srripHits int
	for epoch := 1; epoch <= 12; epoch++ {
		for i := range buf[0] {
			buf[0][i] = pos | 1<<48
			pos = (pos + 1) % scan
			buf[1][i] = rng.Uint64n(1+rng.Uint64n(reuse)) | 2<<48
		}
		for p := range buf {
			lruHits += feed(lru, buf[p], p)
			srripHits += feed(srrip, buf[p], p)
		}
		if err := lru.ForceEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := srrip.ForceEpoch(); err != nil {
			t.Fatal(err)
		}
		if a, b := lru.Allocations(), srrip.Allocations(); !slices.Equal(a, b) {
			t.Fatalf("epoch %d: LRU arrays allocated %v, SRRIP arrays %v", epoch, a, b)
		}
		for p := 0; p < logical; p++ {
			if a, b := lru.Config(p), srrip.Config(p); a != b {
				t.Fatalf("epoch %d partition %d: LRU config %+v, SRRIP config %+v", epoch, p, a, b)
			}
		}
	}
	t.Logf("allocations %v; hits LRU %d, SRRIP %d", lru.Allocations(), lruHits, srripHits)
	if lruHits == srripHits {
		t.Fatalf("both arrays hit %d times: the stream does not tell the policies apart", lruHits)
	}
}
