package monitor

import (
	"testing"

	"talus/internal/curve"
	"talus/internal/hash"
)

// Monitor→curve round trips against streams with known analytic miss
// curves. Two ground truths cover the monitor bank's three arrays and
// their merge:
//
//   - a cyclic scan over F lines under LRU misses on every access below
//     F lines of cache and hits on every access at F and above — a step
//     function with the cliff at F;
//   - a uniform random working set of W lines under LRU has miss ratio
//     ≈ 1 − s/W at size s (each access's line is equally likely to be
//     anywhere in the LRU stack of W distinct lines) — a straight ramp
//     hitting zero at W.

// feedAccesses drives n accesses of pattern next into m and returns the
// unit count for EpochCurve, so curve values are misses per kilo-access
// (miss ratio × 1000).
func feedAccesses(m *SlicedEpochMonitor, n int, next func() uint64) float64 {
	for i := 0; i < n; i++ {
		m.Observe(next())
	}
	return float64(n)
}

func TestRoundTripScanCliffBeyondLLC(t *testing.T) {
	// Scan footprint 1.5× the "LLC": the cliff is invisible to the fine
	// array (coverage up to llc) and must be reconstructed by the
	// extended-coverage (coarse) array after the merge.
	const llc = 4096
	const scanLines = 6144
	m := newBank(t, llc, 12)
	var pos uint64
	units := feedAccesses(m, 3_000_000, func() uint64 {
		a := pos
		pos = (pos + 1) % scanLines
		return a
	})
	c, err := m.EpochCurve(units)
	if err != nil {
		t.Fatal(err)
	}
	if max := c.MaxSize(); max < 3*llc {
		t.Fatalf("merged curve covers only %g lines; extended array missing", max)
	}
	// Below the cliff: every access misses (1000 misses per kilo-access).
	// The bank's way quantization smears the cliff by one way of modeled
	// capacity on each side; sample well clear of it.
	if got := c.Eval(0.7 * scanLines); got < 900 {
		t.Errorf("m(0.7F) = %g, want ≈ 1000 (all miss)", got)
	}
	// Above the cliff: everything hits.
	if got := c.Eval(1.3 * scanLines); got > 100 {
		t.Errorf("m(1.3F) = %g, want ≈ 0 (all hit)", got)
	}
	// The cliff sits at F within the coarse array's way granularity
	// (4×llc/64 lines per way, plus sampling noise): the curve must have
	// fallen by half well inside ±25% of F.
	if lo := c.Eval(0.75 * scanLines); lo < 500 {
		t.Errorf("cliff too early: m(0.75F) = %g", lo)
	}
	if hi := c.Eval(1.25 * scanLines); hi > 500 {
		t.Errorf("cliff too late: m(1.25F) = %g", hi)
	}
}

func TestRoundTripUniformRamp(t *testing.T) {
	// Uniform random over W = llc/2 lines: miss ratio ≈ 1 − s/W. The
	// working set sits inside the sub-range and fine arrays' coverage.
	const llc = 8192
	const ws = llc / 2
	m := newBank(t, llc, 21)
	rng := hash.NewSplitMix64(5)
	units := feedAccesses(m, 4_000_000, func() uint64 { return rng.Uint64n(ws) })
	c, err := m.EpochCurve(units)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		want := (1 - frac) * 1000
		got := c.Eval(frac * ws)
		if got < want-120 || got > want+120 {
			t.Errorf("m(%.2fW) = %g, want %g ± 120", frac, got, want)
		}
	}
	if got := c.Eval(1.2 * ws); got > 60 {
		t.Errorf("m(1.2W) = %g, want ≈ 0 (fits)", got)
	}
	if got := c.Eval(0); got < 900 {
		t.Errorf("m(0) = %g, want ≈ 1000", got)
	}
}

// TestEpochMonitorMatchesManualEWMA checks EpochCurve's decay against
// bookkeeping kept by hand. The raw per-epoch counts come from a second
// bank on the same seed and stream whose epochs are never closed:
// HistogramSnapshot does not decay, so its counters are running
// totals, and since tag state never depends on counters both banks see
// every access at the same depth. The hand-kept EWMA is then
// acc ← trunc(acc·retain) + (total_e − total_{e−1}), with the unit
// denominator decayed in lockstep — and retain 0 selecting DefaultRetain.
func TestEpochMonitorMatchesManualEWMA(t *testing.T) {
	const llc = 4096
	em, err := NewSlicedEpochMonitor(llc, 0, 33, 1)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := NewSlicedEpochMonitor(llc, 0, 33, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := bankSpecs(llc)
	var acc, prev [3][]int64
	var accN, prevN [3]int64
	for i, sp := range specs {
		acc[i] = make([]int64, sp.ways)
		prev[i] = make([]int64, sp.ways)
	}
	rng := hash.NewSplitMix64(9)
	var effUnits float64
	for epoch := 0; epoch < 4; epoch++ {
		const n = 200_000
		for i := 0; i < n; i++ {
			a := rng.Uint64n(1024)
			em.Observe(a)
			totals.Observe(a)
		}
		tot, totN := totals.HistogramSnapshot()
		for i := range acc {
			for d := range acc[i] {
				acc[i][d] += tot[i][d] - prev[i][d]
			}
			accN[i] += totN[i] - prevN[i]
		}
		prev, prevN = tot, totN
		effUnits += n

		gotH, gotN := em.HistogramSnapshot()
		for i := range acc {
			if gotN[i] != accN[i] {
				t.Fatalf("epoch %d array %d: %d sampled accesses, manual EWMA %d", epoch, i, gotN[i], accN[i])
			}
			for d := range acc[i] {
				if gotH[i][d] != acc[i][d] {
					t.Fatalf("epoch %d array %d depth %d: %d hits, manual EWMA %d", epoch, i, d, gotH[i][d], acc[i][d])
				}
			}
		}
		got, err := em.EpochCurve(n)
		if err != nil {
			t.Fatal(err)
		}
		var pts [3][]curve.Point
		for i, sp := range specs {
			pts[i] = stackPoints(accN[i], acc[i], sp.ways, sp.rate, sp.modeled, effUnits/1000)
		}
		want, err := assembleCurve(pts[0], pts[1], pts[2])
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []float64{0, 512, 1024, 2048} {
			if g, w := got.Eval(s), want.Eval(s); g != w {
				t.Fatalf("epoch %d: EpochCurve(%g) = %g, manual = %g", epoch, s, g, w)
			}
		}

		for i := range acc {
			for d := range acc[i] {
				acc[i][d] = int64(float64(acc[i][d]) * DefaultRetain)
			}
			accN[i] = int64(float64(accN[i]) * DefaultRetain)
		}
		effUnits *= DefaultRetain
	}
}
