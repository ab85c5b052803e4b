package monitor

import (
	"math"
	"testing"

	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/policy"
)

func TestUMONValidation(t *testing.T) {
	if _, err := NewUMON(0, 64, 0.5, 1); err == nil {
		t.Fatal("zero sets must fail")
	}
	if _, err := NewUMON(16, 0, 0.5, 1); err == nil {
		t.Fatal("zero ways must fail")
	}
	if _, err := NewUMON(16, 64, 0, 1); err == nil {
		t.Fatal("zero rate must fail")
	}
	if _, err := NewUMON(16, 64, 1.5, 1); err == nil {
		t.Fatal("rate > 1 must fail")
	}
}

func TestUMONScanCurve(t *testing.T) {
	// A cyclic scan over F lines: the miss curve is ~all-miss below F and
	// ~all-hit above. An unsampled (rate-1) UMON with capacity 2F should
	// show exactly that cliff.
	const f = 512
	u, err := NewUMON(16, 64, 1, 7) // 1024 monitored lines, unsampled
	if err != nil {
		t.Fatal(err)
	}
	const accesses = f * 40
	for i := 0; i < accesses; i++ {
		u.Observe(uint64(i % f))
	}
	apki := 10.0
	kiloInstr := float64(accesses) / apki
	pts := u.Points(kiloInstr)
	c, err := curve.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Below the footprint: near-APKI MPKI. Above: near zero.
	if got := c.Eval(f / 2); got < apki*0.9 {
		t.Errorf("MPKI at F/2 = %g, want ≈ %g", got, apki)
	}
	if got := c.Eval(f * 3 / 2); got > apki*0.15 {
		t.Errorf("MPKI at 1.5F = %g, want ≈ 0", got)
	}
	// LRU stack property: the curve must be non-increasing.
	if !c.IsNonIncreasing() {
		t.Errorf("UMON curve must be monotone: %v", c)
	}
}

func TestUMONSampledMatchesUnsampled(t *testing.T) {
	// Theorem 4 in practice: a 1/8-sampled monitor with the same array
	// models 8× capacity; on a random working set both monitors must
	// agree where their size ranges overlap.
	rng := hash.NewSplitMix64(3)
	full, err := NewUMON(32, 64, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := NewUMON(32, 64, 0.125, 11)
	if err != nil {
		t.Fatal(err)
	}
	const ws = 4096
	const accesses = 1 << 21
	for i := 0; i < accesses; i++ {
		a := rng.Uint64n(ws)
		full.Observe(a)
		sampled.Observe(a)
	}
	kiloInstr := float64(accesses) / 10
	cf, err := curve.New(full.Points(kiloInstr))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := curve.New(sampled.Points(kiloInstr))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{512, 1024, 1536, 2048} {
		a, b := cf.Eval(s), cs.Eval(s)
		if math.Abs(a-b) > 0.15*(a+1) {
			t.Errorf("size %g: full %g vs sampled %g", s, a, b)
		}
	}
}

func TestLRUMonitorCoverage(t *testing.T) {
	// The paired monitor must produce points beyond the LLC size (4×
	// coverage) — the paper's fix for cliffs beyond the LLC (§VI-C).
	llc := int64(16384)
	m, err := NewLRUMonitor(llc, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewSplitMix64(9)
	const accesses = 1 << 21
	for i := 0; i < accesses; i++ {
		m.Observe(rng.Uint64n(100000))
	}
	c, err := m.Curve(float64(accesses) / 20)
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

func TestLRUMonitorDetectsCliffBeyondLLC(t *testing.T) {
	// A scan of 2× the LLC: the conventional UMON alone cannot see the
	// cliff; the extended monitor must reveal MPKI dropping past 2×LLC.
	llc := int64(8192)
	footprint := uint64(2 * llc)
	m, err := NewLRUMonitor(llc, 5)
	if err != nil {
		t.Fatal(err)
	}
	accesses := int(footprint) * 48
	for i := 0; i < accesses; i++ {
		m.Observe(uint64(i) % footprint)
	}
	c, err := m.Curve(float64(accesses) / 30)
	if err != nil {
		t.Fatal(err)
	}
	atLLC := c.Eval(float64(llc))
	beyond := c.Eval(float64(3 * llc))
	if !(beyond < atLLC*0.3) {
		t.Fatalf("extended monitor missed the cliff: m(LLC)=%g m(3LLC)=%g", atLLC, beyond)
	}
}

func TestLRUMonitorNoObservations(t *testing.T) {
	m, err := NewLRUMonitor(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Curve(10); err == nil {
		t.Fatal("curve with no observations must fail")
	}
}

func TestUMONResetCounters(t *testing.T) {
	u, err := NewUMON(4, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		u.Observe(uint64(i % 16))
	}
	u.ResetCounters()
	if u.SampledAccesses() != 0 {
		t.Fatal("ResetCounters must clear access counts")
	}
	// Tags stay warm: re-observing resident lines hits immediately.
	u.Observe(15)
	if u.SampledAccesses() != 1 {
		t.Fatal("monitor must keep observing after reset")
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
	m, err := NewLRUMonitor(llc, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewSplitMix64(5)
	for i := 0; i < 1<<16; i++ {
		m.Observe(rng.Uint64n(llc))
	}
	sub, fine, coarse := m.sub.SampledAccesses(), m.fine.SampledAccesses(), m.coarse.SampledAccesses()
	if coarse == 0 {
		t.Fatal("coarse array sampled nothing; stream too small for the test")
	}
	if !(sub >= fine && fine >= coarse) {
		t.Fatalf("sampled sets not nested: sub %d, fine %d, coarse %d", sub, fine, coarse)
	}
	// Thresholds must be ordered for the subset property, not just counts.
	if !(m.sub.thresh >= m.fine.thresh && m.fine.thresh >= m.coarse.thresh) {
		t.Fatalf("thresholds not ordered: sub %d, fine %d, coarse %d",
			m.sub.thresh, m.fine.thresh, m.coarse.thresh)
	}
}
