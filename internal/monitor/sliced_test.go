package monitor

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"talus/internal/curve"
	"talus/internal/hash"
)

// manualEWMA is the reference the sliced bank is checked against: one
// classic LRUMonitor whose caller keeps the per-epoch EWMA by hand.
type manualEWMA struct {
	mon      *LRUMonitor
	effUnits float64
}

func newManualEWMA(t *testing.T, llc int64, seed uint64) *manualEWMA {
	t.Helper()
	mon, err := NewLRUMonitor(llc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &manualEWMA{mon: mon}
}

func (m *manualEWMA) epochCurve(units float64) (*curve.Curve, error) {
	m.effUnits += units
	c, err := m.mon.Curve(m.effUnits / 1000)
	m.mon.Decay(DefaultRetain)
	m.effUnits *= DefaultRetain
	return c, err
}

// feedEpochs drives the same phased stream through both monitors with
// epochs closed at the same boundaries, comparing histograms and curves
// at each. The stream mixes a cyclic scan with random reuse so every array
// sees hits at several depths and the EWMA decay truncation is exercised
// on non-trivial counter values.
func feedEpochs(t *testing.T, em *manualEWMA, sm *SlicedEpochMonitor, epochs, perEpoch int, seed uint64) {
	t.Helper()
	rng := hash.NewSplitMix64(seed)
	for e := 0; e < epochs; e++ {
		addrs := make([]uint64, perEpoch)
		for i := range addrs {
			if i%3 == 0 {
				addrs[i] = uint64((e*perEpoch + i) % 5000) // scan
			} else {
				addrs[i] = 1 << 20 * (rng.Next()%4096 + 1) // random reuse
			}
		}
		for _, a := range addrs {
			em.mon.Observe(a)
			sm.Observe(a)
		}

		eh, ea := em.mon.HistogramSnapshot()
		sh, sa := sm.HistogramSnapshot()
		for i := range eh {
			if ea[i] != sa[i] {
				t.Fatalf("epoch %d array %d: accesses %d (single) != %d (sliced)", e, i, ea[i], sa[i])
			}
			for d := range eh[i] {
				if eh[i][d] != sh[i][d] {
					t.Fatalf("epoch %d array %d depth %d: hits %d (single) != %d (sliced)", e, i, d, eh[i][d], sh[i][d])
				}
			}
		}

		ec, eErr := em.epochCurve(float64(perEpoch))
		sc, sErr := sm.EpochCurve(float64(perEpoch))
		if (eErr == nil) != (sErr == nil) {
			t.Fatalf("epoch %d: error mismatch: single=%v sliced=%v", e, eErr, sErr)
		}
		if eErr != nil {
			continue
		}
		ep, sp := ec.Points(), sc.Points()
		if len(ep) != len(sp) {
			t.Fatalf("epoch %d: %d points (single) != %d (sliced)", e, len(ep), len(sp))
		}
		for i := range ep {
			if ep[i].Size != sp[i].Size || math.Float64bits(ep[i].MPKI) != math.Float64bits(sp[i].MPKI) {
				t.Fatalf("epoch %d point %d: single=%+v sliced=%+v", e, i, ep[i], sp[i])
			}
		}
	}
}

// TestSlicedMatchesEpoch pins the sliced bank's core identity: a
// SlicedEpochMonitor fed any stream produces, at every epoch boundary,
// bit-identical hit histograms, sampled-access counts, and curves to a
// classic LRUMonitor with hand-kept EWMA fed the same stream — across
// EWMA decay and warm tags, at every slice count.
func TestSlicedMatchesEpoch(t *testing.T) {
	for _, llc := range []int64{2048, 16384, 131072} {
		for _, slices := range []int{1, 2, 8, 64} {
			em := newManualEWMA(t, llc, 42)
			sm, err := NewSlicedEpochMonitor(llc, DefaultRetain, 42, slices)
			if err != nil {
				t.Fatal(err)
			}
			feedEpochs(t, em, sm, 6, 20000, 0xABCD+uint64(llc)+uint64(slices))
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
// to a single LRUMonitor fed the same streams sequentially. Run with
// -race this also hammers the slice-locking discipline.
func TestSlicedConcurrentMatchesSequential(t *testing.T) {
	const llc = 65536
	em := newManualEWMA(t, llc, 7)
	sm, err := NewSlicedEpochMonitor(llc, DefaultRetain, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Partition a shared address stream by owning slice.
	perSlice := make([][]uint64, sm.Slices())
	rng := hash.NewSplitMix64(99)
	for i := 0; i < 1<<17; i++ {
		addr := rng.Next() % 60000
		hv := sm.h.Hash(addr)
		if hv >= sm.maxThresh {
			continue // would be filtered; keep streams compact
		}
		si := sm.sliceOf(bankSetValue(addr, sm.setSeed))
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
				em.mon.Observe(a)
			}
		}
		eh, ea := em.mon.HistogramSnapshot()
		sh, sa := sm.HistogramSnapshot()
		for i := range eh {
			if ea[i] != sa[i] {
				t.Fatalf("round %d array %d: accesses %d (single) != %d (sliced)", r, i, ea[i], sa[i])
			}
			for d := range eh[i] {
				if eh[i][d] != sh[i][d] {
					t.Fatalf("round %d array %d depth %d: hits %d (single) != %d (sliced)", r, i, d, eh[i][d], sh[i][d])
				}
			}
		}
		// Decay between rounds so warm-tag + EWMA state carries over.
		if _, err := em.epochCurve(1000); err != nil {
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
