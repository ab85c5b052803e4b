package monitor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"talus/internal/hash"
)

// sameHistograms fails unless two banks hold identical hit histograms
// and sampled-access counts.
func sameHistograms(t *testing.T, at string, one, sliced *SlicedEpochMonitor) {
	t.Helper()
	oh, oa := one.HistogramSnapshot()
	sh, sa := sliced.HistogramSnapshot()
	for i := range oh {
		if oa[i] != sa[i] {
			t.Fatalf("%s array %d: accesses %d (one slice) != %d (sliced)", at, i, oa[i], sa[i])
		}
		for d := range oh[i] {
			if oh[i][d] != sh[i][d] {
				t.Fatalf("%s array %d depth %d: hits %d (one slice) != %d (sliced)", at, i, d, oh[i][d], sh[i][d])
			}
		}
	}
}

// feedEpochs drives the same phased stream through both banks with
// epochs closed at the same boundaries, comparing histograms and curves
// at each. The stream mixes a cyclic scan with random reuse so every array
// sees hits at several depths and the EWMA decay truncation is exercised
// on non-trivial counter values.
func feedEpochs(t *testing.T, one, sliced *SlicedEpochMonitor, epochs, perEpoch int, seed uint64) {
	t.Helper()
	rng := hash.NewSplitMix64(seed)
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			var a uint64
			if i%3 == 0 {
				a = uint64((e*perEpoch + i) % 5000) // scan
			} else {
				a = 1 << 20 * (rng.Next()%4096 + 1) // random reuse
			}
			one.Observe(a)
			sliced.Observe(a)
		}
		sameHistograms(t, fmt.Sprintf("epoch %d", e), one, sliced)

		oc, oErr := one.EpochCurve(float64(perEpoch))
		sc, sErr := sliced.EpochCurve(float64(perEpoch))
		if (oErr == nil) != (sErr == nil) {
			t.Fatalf("epoch %d: error mismatch: one slice=%v sliced=%v", e, oErr, sErr)
		}
		if oErr != nil {
			continue
		}
		op, sp := oc.Points(), sc.Points()
		if len(op) != len(sp) {
			t.Fatalf("epoch %d: %d points (one slice) != %d (sliced)", e, len(op), len(sp))
		}
		for i := range op {
			if op[i].Size != sp[i].Size || math.Float64bits(op[i].MPKI) != math.Float64bits(sp[i].MPKI) {
				t.Fatalf("epoch %d point %d: one slice=%+v sliced=%+v", e, i, op[i], sp[i])
			}
		}
	}
}

// TestSlicedMatchesEpoch pins that the slice count is a lock-domain count
// and nothing else: fed any stream, a bank of n slices holds, at every
// epoch boundary, bit-identical hit histograms, sampled-access counts and
// curves to a one-slice bank fed the same stream — across EWMA decay and
// warm tags.
func TestSlicedMatchesEpoch(t *testing.T) {
	for _, llc := range []int64{2048, 16384, 131072} {
		for _, slices := range []int{2, 8, 64} {
			one, err := NewSlicedEpochMonitor(llc, DefaultRetain, 42, 1)
			if err != nil {
				t.Fatal(err)
			}
			sm, err := NewSlicedEpochMonitor(llc, DefaultRetain, 42, slices)
			if err != nil {
				t.Fatal(err)
			}
			feedEpochs(t, one, sm, 6, 20000, 0xABCD+uint64(llc)+uint64(slices))
		}
	}
}

// TestSlicedSliceClamp checks the slice count is clamped to the smallest
// array's set count and rounded down to a power of two.
func TestSlicedSliceClamp(t *testing.T) {
	// llc 2048: sub array models 512 lines → geometry sheds sets.
	sm, err := NewSlicedEpochMonitor(2048, 0, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	specs := bankSpecs(2048)
	minSets := specs[0].sets
	for _, sp := range specs[1:] {
		if sp.sets < minSets {
			minSets = sp.sets
		}
	}
	if sm.Slices() > minSets {
		t.Fatalf("slices %d > min sets %d", sm.Slices(), minSets)
	}
	if n := sm.Slices(); n&(n-1) != 0 {
		t.Fatalf("slices %d not a power of two", n)
	}
	if sm2, _ := NewSlicedEpochMonitor(1<<20, 0, 1, 6); sm2.Slices() != 4 {
		t.Fatalf("slices = %d, want 6 rounded down to 4", sm2.Slices())
	}
}

// TestSlicedConcurrentMatchesSequential drives the sliced monitor from
// many goroutines — each feeding a stream pre-filtered to a single
// slice, so every set's access order is deterministic even under racing
// schedulers — and requires the merged histograms to be byte-identical
// to a one-slice bank fed the same streams sequentially. Run with
// -race this also hammers the slice-locking discipline.
func TestSlicedConcurrentMatchesSequential(t *testing.T) {
	const llc = 65536
	one, err := NewSlicedEpochMonitor(llc, DefaultRetain, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSlicedEpochMonitor(llc, DefaultRetain, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Partition a shared address stream by owning slice.
	perSlice := make([][]uint64, sm.Slices())
	rng := hash.NewSplitMix64(99)
	for i := 0; i < 1<<17; i++ {
		addr := rng.Next() % 60000
		si, sampled := sm.SampledSlice(addr)
		if !sampled {
			continue // would be filtered; keep streams compact
		}
		perSlice[si] = append(perSlice[si], addr)
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for si := range perSlice {
			wg.Add(1)
			go func(stream []uint64) {
				defer wg.Done()
				// Ragged runs between yields vary the interleaving.
				for i := 0; i < len(stream); {
					n := min(64+i%129, len(stream)-i)
					for _, a := range stream[i : i+n] {
						sm.Observe(a)
					}
					i += n
					runtime.Gosched()
				}
			}(perSlice[si])
		}
		wg.Wait()
		for _, stream := range perSlice {
			for _, a := range stream {
				one.Observe(a)
			}
		}
		sameHistograms(t, fmt.Sprintf("round %d", r), one, sm)
		// Decay between rounds so warm-tag + EWMA state carries over.
		if _, err := one.EpochCurve(1000); err != nil {
			t.Fatal(err)
		}
		if _, err := sm.EpochCurve(1000); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlicedObserveDuringEpochCurve races observers against epoch
// drains; under -race this pins that EpochCurve's drain and concurrent
// Observe are properly synchronized. Timing decides which
// epoch a racing access lands in, so the assertion is race-cleanliness
// plus a well-formed curve, not specific counter values.
func TestSlicedObserveDuringEpochCurve(t *testing.T) {
	sm, err := NewSlicedEpochMonitor(65536, 0.99, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := hash.NewSplitMix64(uint64(g) * 977)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 128; i++ {
					sm.Observe(rng.Next() % 50000)
				}
			}
		}(g)
	}
	for e := 0; e < 50; e++ {
		c, err := sm.EpochCurve(10000)
		if err == nil && len(c.Points()) == 0 {
			t.Fatal("empty curve from non-empty monitor")
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
}
