package adaptive_test

import (
	"slices"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/alloc"
	"talus/internal/hash"
	"talus/internal/monitor"
)

// unsampled returns an address that none of the monitors built with
// seeds at llc lines samples: it counts as an access but changes no
// counter.
func unsampled(t *testing.T, llc int64, seeds ...uint64) uint64 {
	t.Helper()
next:
	for addr := uint64(1); addr < 1<<20; addr++ {
		for _, seed := range seeds {
			m, err := monitor.NewSlicedEpochMonitor(llc, monitor.DefaultRetain, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			m.Observe(addr)
			if _, acc := m.HistogramSnapshot(); acc != [3]int64{} {
				continue next
			}
		}
		return addr
	}
	t.Fatal("every address is sampled")
	return 0
}

// TestStepClosesEveryMonitor: a busy partition whose monitor has no
// sample yet must not alter a busy neighbour's curve. The epoch step
// once stopped at the first monitor without a curve; the one behind it
// was left open, kept undecayed counters against an unadvanced
// denominator, and read over-scaled the next epoch.
func TestStepClosesEveryMonitor(t *testing.T) {
	const llc, perEpoch, seed = 1 << 16, 100_000, 17
	const stride = 0x9E3779B9 // NewLoop's per-partition seed step
	// pair's partition 0 issues only an address its monitor never
	// samples. Partition 1 shares its monitor seed with alone's only
	// partition, which issues the same accesses plus the same unsampled
	// ones (they change nothing in its monitor but the epoch's unit).
	quiet := unsampled(t, llc, seed, seed+stride)
	pair, err := adaptive.NewLoop(2, llc, seed)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := adaptive.NewLoop(1, llc, seed+stride)
	if err != nil {
		t.Fatal(err)
	}
	req := alloc.Request{Total: llc}
	rng := hash.NewSplitMix64(3)
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < perEpoch; i++ {
			addr := rng.Uint64n(1 << 15)
			pair.Observe(addr, 1)
			alone.Observe(addr, 0)
			if i%4 == 0 {
				pair.Observe(quiet, 0)
				alone.Observe(quiet, 0)
			}
		}
		for _, l := range []*adaptive.Loop{pair, alone} {
			if _, _, ok, err := l.Step(alloc.HillClimbAllocator, true, req); !ok || err != nil {
				t.Fatalf("epoch %d: Step = %v, %v", epoch, ok, err)
			}
		}
		if got := pair.Curve(0).Points(); len(got) != 2 || got[0].MPKI != 0 || got[1].MPKI != 0 {
			t.Fatalf("epoch %d: a monitor with no sample got curve %v, want flat zero", epoch, got)
		}
		if got, want := pair.Curve(1).Points(), alone.Curve(0).Points(); !slices.Equal(got, want) {
			t.Fatalf("epoch %d: curve beside an unsampled partition\n\t%v\nalone\n\t%v", epoch, got, want)
		}
	}
}
