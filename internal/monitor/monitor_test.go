package monitor

import (
	"math"
	"testing"

	"talus/internal/hash"
	"talus/internal/policy"
)

// newBank builds the LRU-stack bank as requests reach it (default
// retention).
func newBank(t *testing.T, llc int64, seed uint64) *SlicedEpochMonitor {
	t.Helper()
	m, err := NewSlicedEpochMonitor(llc, 0, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUMONValidation(t *testing.T) {
	for _, llc := range []int64{0, -1} {
		if _, err := NewSlicedEpochMonitor(llc, 0, 1, 1); err == nil {
			t.Fatalf("llc %d must fail", llc)
		}
	}
	// A retention factor outside (0, 1) selects the default.
	for _, retain := range []float64{-0.5, 0, 1, 1.5} {
		m, err := NewSlicedEpochMonitor(1024, retain, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.retain != DefaultRetain {
			t.Fatalf("retain %g kept as %g, want DefaultRetain", retain, m.retain)
		}
	}
}

// TestUMONScanCurve checks the stack walk exactly, at the one geometry
// small enough to do by hand: at llc 64 the sub and fine arrays are each a
// single unsampled (rate-1) 64-way LRU stack. A cyclic scan over 32 lines
// reuses every line at stack depth 31, so after the 32 cold misses every
// access is a depth-31 hit: the curve is all-miss below 32 lines and
// all-hit from 32 up.
func TestUMONScanCurve(t *testing.T) {
	const llc, f, n = 64, 32, 32 * 1000
	specs := bankSpecs(llc)
	for i := 0; i < 2; i++ {
		if sp := specs[i]; sp.sets != 1 || sp.rate != 1 || sp.modeled != llc {
			t.Fatalf("array %d at llc %d: %+v, want one unsampled %d-line set", i, llc, sp, llc)
		}
	}
	m := newBank(t, llc, 7)
	for i := 0; i < n; i++ {
		m.Observe(uint64(i % f))
	}
	hists, accesses := m.HistogramSnapshot()
	for i := 0; i < 2; i++ {
		if accesses[i] != n {
			t.Fatalf("array %d sampled %d of %d accesses at rate 1", i, accesses[i], n)
		}
		for d, h := range hists[i] {
			want := int64(0)
			if d == f-1 {
				want = n - f
			}
			if h != want {
				t.Fatalf("array %d depth %d: %d hits, want %d", i, d, h, want)
			}
		}
	}
	c, err := m.EpochCurve(n) // misses per kilo-access
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < f; s++ {
		if got := c.Eval(float64(s)); math.Abs(got-1000) > 1e-9 {
			t.Fatalf("m(%d) = %g, want 1000 (all miss below the footprint)", s, got)
		}
	}
	// From the footprint up only cold misses remain: f of them in the exact
	// arrays, at most 4f once scaled up from the quarter-rate coarse array.
	for s := f; s <= 4*llc; s++ {
		if got := c.Eval(float64(s)); got > 4*f*1000.0/n {
			t.Fatalf("m(%d) = %g, want ≈ 0 (all hit from the footprint up)", s, got)
		}
	}
	// LRU stack property: the curve must be non-increasing.
	if !c.IsNonIncreasing() {
		t.Errorf("bank curve must be monotone: %v", c)
	}
}

func TestMonitorCoverage(t *testing.T) {
	// The bank must produce points beyond the LLC size (4× coverage) —
	// the paper's fix for cliffs beyond the LLC (§VI-C).
	llc := int64(16384)
	m := newBank(t, llc, 5)
	rng := hash.NewSplitMix64(9)
	const accesses = 1 << 21
	for i := 0; i < accesses; i++ {
		m.Observe(rng.Uint64n(100000))
	}
	c, err := m.EpochCurve(float64(accesses) / 20 * 1000)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxSize() < float64(3*llc) {
		t.Fatalf("coverage %g lines, want ≥ 3× LLC (%d)", c.MaxSize(), 3*llc)
	}
	if !c.IsNonIncreasing() {
		t.Fatal("combined curve must be monotone")
	}
	if c.Eval(0) <= 0 {
		t.Fatal("size-0 point must be all-miss")
	}
}

func TestMonitorDetectsCliffBeyondLLC(t *testing.T) {
	// A scan of 2× the LLC: the conventional (fine) array alone cannot see
	// the cliff; the extended array must reveal MPKI dropping past 2×LLC.
	llc := int64(8192)
	footprint := uint64(2 * llc)
	m := newBank(t, llc, 5)
	accesses := int(footprint) * 48
	for i := 0; i < accesses; i++ {
		m.Observe(uint64(i) % footprint)
	}
	c, err := m.EpochCurve(float64(accesses) / 30 * 1000)
	if err != nil {
		t.Fatal(err)
	}
	atLLC := c.Eval(float64(llc))
	beyond := c.Eval(float64(3 * llc))
	if !(beyond < atLLC*0.3) {
		t.Fatalf("extended monitor missed the cliff: m(LLC)=%g m(3LLC)=%g", atLLC, beyond)
	}
}

func TestMonitorNoObservations(t *testing.T) {
	m := newBank(t, 1024, 1)
	if _, err := m.EpochCurve(10000); err == nil {
		t.Fatal("curve with no observations must fail")
	}
}

func TestPolicyMonitorPoint(t *testing.T) {
	// An SRRIP monitor modeling 4096 lines, on a 2048-line working set:
	// near-zero misses in steady state.
	pm, err := NewPolicyMonitor(4096, 1024, 16, policy.SRRIPFactory, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewSplitMix64(8)
	const accesses = 1 << 21
	for i := 0; i < accesses; i++ {
		pm.Observe(rng.Uint64n(2048))
	}
	p := pm.Point(float64(accesses) / 10)
	if p.Size != 4096 {
		t.Fatalf("point size = %g", p.Size)
	}
	if p.MPKI > 1.5 {
		t.Fatalf("fitting working set MPKI = %g, want ≈ 0", p.MPKI)
	}
}

func TestMultiMonitorCurveShape(t *testing.T) {
	// SRRIP multi-monitor on a scan: the curve must fall from all-miss
	// toward zero as modeled capacity exceeds the footprint.
	mm, err := NewMultiMonitor(16384, 16, 1024, 16, policy.LRUFactory, 4)
	if err != nil {
		t.Fatal(err)
	}
	const footprint = 6000
	const accesses = 1 << 21
	for i := 0; i < accesses; i++ {
		mm.Observe(uint64(i % footprint))
	}
	c, err := mm.Curve(float64(accesses) / 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.Eval(0) < 8 {
		t.Fatalf("size-0 MPKI = %g, want ≈ APKI (10)", c.Eval(0))
	}
	small := c.Eval(3000)
	big := c.Eval(15000)
	if !(big < small*0.4) {
		t.Fatalf("multi-monitor curve did not fall: m(3000)=%g m(15000)=%g", small, big)
	}
}

func TestMultiMonitorValidation(t *testing.T) {
	if _, err := NewMultiMonitor(1024, 1, 128, 4, policy.LRUFactory, 1); err == nil {
		t.Fatal("single-point multi-monitor must fail")
	}
}

// TestSharedSamplingHashNests checks the monitor bank's shared-hash
// construction: all three arrays filter on one hash value against their
// own thresholds, so the sparser arrays' sampled sets are subsets of the
// denser ones' (coarse ⊆ fine ⊆ sub) and the sampled-access counts are
// ordered accordingly.
func TestSharedSamplingHashNests(t *testing.T) {
	const llc = 1 << 16 // large enough that all three rates are < 1
	m := newBank(t, llc, 11)
	rng := hash.NewSplitMix64(5)
	for i := 0; i < 1<<16; i++ {
		m.Observe(rng.Uint64n(llc))
	}
	_, sampled := m.HistogramSnapshot()
	sub, fine, coarse := sampled[0], sampled[1], sampled[2]
	if coarse == 0 {
		t.Fatal("coarse array sampled nothing; stream too small for the test")
	}
	if !(sub >= fine && fine >= coarse) {
		t.Fatalf("sampled sets not nested: sub %d, fine %d, coarse %d", sub, fine, coarse)
	}
	// Thresholds must be ordered for the subset property, not just counts.
	specs := bankSpecs(llc)
	if !(specs[0].thresh >= specs[1].thresh && specs[1].thresh >= specs[2].thresh) {
		t.Fatalf("thresholds not ordered: sub %d, fine %d, coarse %d",
			specs[0].thresh, specs[1].thresh, specs[2].thresh)
	}
}
