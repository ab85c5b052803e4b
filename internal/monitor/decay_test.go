package monitor

import (
	"math"
	"testing"

	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/policy"
)

func TestUMONDecayHalvesCounters(t *testing.T) {
	// llc 64: the fine array is one unsampled 64-way stack (see
	// TestUMONScanCurve), so counts are exact.
	m := newBank(t, 64, 1)
	for i := 0; i < 1000; i++ {
		m.Observe(uint64(i % 16))
	}
	hists, accesses := m.HistogramSnapshot()
	if accesses[1] != 1000 || hists[1][15] != 1000-16 {
		t.Fatalf("before decay: %d accesses, %d depth-15 hits; want 1000, 984", accesses[1], hists[1][15])
	}
	if _, err := m.EpochCurve(1000); err != nil {
		t.Fatal(err)
	}
	hists, accesses = m.HistogramSnapshot()
	if accesses[1] != 500 || hists[1][15] != 492 {
		t.Fatalf("after decay: %d accesses, %d depth-15 hits; want 500, 492", accesses[1], hists[1][15])
	}
}

// TestMonitorTagsStayWarmAcrossEpochs: closing an epoch decays counters
// and nothing else — the next interval starts warm, as hardware UMONs do
// between reconfigurations.
func TestMonitorTagsStayWarmAcrossEpochs(t *testing.T) {
	m := newBank(t, 64, 1)
	for i := 0; i < 100; i++ {
		m.Observe(uint64(i % 16))
	}
	if _, err := m.EpochCurve(100); err != nil {
		t.Fatal(err)
	}
	// The last access was line 3, so line 15 sits 4 deep under 3, 2, 1, 0:
	// a resident line hits at its depth immediately.
	m.Observe(15)
	hists, accesses := m.HistogramSnapshot()
	if accesses[1] != 51 || hists[1][4] != 1 {
		t.Fatalf("after one warm access: %d accesses, %d depth-4 hits; want 51, 1", accesses[1], hists[1][4])
	}
}

func TestUMONDecayPreservesCurveShape(t *testing.T) {
	// A stationary stream: the curve after several decayed epochs must
	// match a fresh one-epoch measurement (EWMA of a constant is the
	// constant).
	m := newBank(t, 512, 3)
	rng := hash.NewSplitMix64(2)
	const perEpoch = 200000
	const units = perEpoch / 10 * 1000 // APKI 10
	var fresh, c *curve.Curve
	for epoch := 0; epoch < 6; epoch++ {
		for i := 0; i < perEpoch; i++ {
			m.Observe(rng.Uint64n(256))
		}
		var err error
		if c, err = m.EpochCurve(units); err != nil {
			t.Fatal(err)
		}
		if epoch == 0 {
			fresh = c
		}
	}
	for _, s := range []float64{0, 64, 128, 192, 400} {
		a, b := fresh.Eval(s), c.Eval(s)
		if math.Abs(a-b) > 0.15*(a+1) {
			t.Errorf("size %g: fresh %g vs after 6 epochs %g", s, a, b)
		}
	}
	// The 256-line working set fits easily in the 512-line bank: MPKI
	// beyond 256 lines ≈ 0; at size 0 ≈ APKI (10).
	if got := c.Eval(0); got < 8 {
		t.Errorf("m(0) = %g, want ≈ 10", got)
	}
	if got := c.Eval(400); got > 1 {
		t.Errorf("m(400) = %g, want ≈ 0", got)
	}
}

func TestMonitorDecayAdaptsToPhaseChange(t *testing.T) {
	// Phase 1: 2048-line working set. Phase 2: 128-line working set.
	// With decay, the curve must converge toward phase 2's shape within a
	// few epochs.
	m := newBank(t, 8192, 4)
	rng := hash.NewSplitMix64(5)
	const perEpoch = 200000
	const units = perEpoch / 10 * 1000 // APKI 10
	epoch := func(ws uint64) *curve.Curve {
		for i := 0; i < perEpoch; i++ {
			m.Observe(rng.Uint64n(ws))
		}
		c, err := m.EpochCurve(units)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for i := 0; i < 3; i++ {
		epoch(2048)
	}
	var c *curve.Curve
	for i := 0; i < 5; i++ {
		c = epoch(128)
	}
	// Nearly everything should fit within 256 lines now.
	if got := c.Eval(256); got > 2.5 {
		t.Errorf("after phase change m(256) = %g, want small", got)
	}
}

func TestPolicyMonitorResetCounters(t *testing.T) {
	pm, err := NewPolicyMonitor(2048, 512, 16, policy.LRUFactory, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		pm.Observe(uint64(i % 300))
	}
	pm.ResetCounters()
	p := pm.Point(10)
	if p.MPKI != 0 {
		t.Fatalf("point after reset = %+v", p)
	}
	// Modeled size clamps to at least the monitor size.
	pm2, err := NewPolicyMonitor(100, 512, 16, policy.LRUFactory, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pm2.modeled != 100 {
		t.Fatalf("modeled = %d", pm2.modeled)
	}
}
