package adaptive_test

import (
	"testing"
	"time"

	"talus/internal/adaptive"
	"talus/internal/hash"
)

// TestIdleEpochsAreSkipped is the regression test for the idle-decay
// bug: the wall-clock ticker used to fire the full epoch step with zero
// observed accesses, EWMA-decaying live curves toward empty. Idle
// epochs must now be complete no-ops.
func TestIdleEpochsAreSkipped(t *testing.T) {
	ac := buildAdaptive(t, 4096, 1, 2, adaptive.Config{
		EpochAccesses: 1 << 40,
		EpochInterval: time.Millisecond,
		Seed:          21,
	})
	defer ac.Close()

	// Dozens of ticks on a completely idle cache: no epoch may count.
	time.Sleep(50 * time.Millisecond)
	if got := ac.Epochs(); got != 0 {
		t.Fatalf("%d epochs ran on an idle cache", got)
	}
	if c := ac.Curve(0); c != nil {
		t.Fatalf("idle cache extracted a curve: %v", c)
	}

	// After real traffic the ticker measures as before.
	rng := hash.NewSplitMix64(3)
	buf := make([]uint64, 512)
	for i := range buf {
		buf[i] = rng.Uint64n(1024) | 1<<48
	}
	feed(ac, buf, 0)
	deadline := time.Now().Add(5 * time.Second)
	for ac.Curve(0) == nil {
		if time.Now().After(deadline) {
			t.Fatal("ticker never measured the traffic")
		}
		time.Sleep(time.Millisecond)
	}
	// A tick may have split the feed; give the next one time to measure
	// the rest before sampling the count that must then freeze.
	time.Sleep(10 * time.Millisecond)
	measured := ac.Epochs()
	if measured == 0 {
		t.Fatal("curve extracted but epoch count still zero")
	}
	// Back to idle: the epoch count must freeze again.
	time.Sleep(30 * time.Millisecond)
	if got := ac.Epochs(); got != measured {
		t.Fatalf("epochs advanced from %d to %d with no traffic", measured, got)
	}
}

// TestIdlePartitionCurvePreserved: when the cache has traffic but one
// partition is idle, that partition's monitor must not be decayed and
// its last measured curve must stand — previously its denominator grew
// while its counters decayed, starving the idle tenant of allocation.
func TestIdlePartitionCurvePreserved(t *testing.T) {
	ac := buildAdaptive(t, 4096, 1, 2, adaptive.Config{
		EpochAccesses: 1 << 40, // epochs only via ForceEpoch
		Seed:          22,
	})
	rng := hash.NewSplitMix64(5)
	feed := func(p int) {
		buf := make([]uint64, 2048)
		for i := range buf {
			buf[i] = rng.Uint64n(1024) | uint64(p+1)<<48
		}
		feed(ac, buf, p)
	}
	feed(0)
	feed(1)
	if err := ac.ForceEpoch(); err != nil {
		t.Fatal(err)
	}
	c1 := ac.Curve(1)
	if c1 == nil {
		t.Fatal("partition 1 not measured")
	}
	// Partition 1 goes idle for several epochs of partition-0 traffic.
	for e := 0; e < 5; e++ {
		feed(0)
		if err := ac.ForceEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ac.Curve(1); got != c1 {
		t.Fatalf("idle partition's curve was replaced: %v -> %v", c1, got)
	}
	// And when it returns, measurement resumes.
	feed(1)
	if err := ac.ForceEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := ac.Curve(1); got == c1 {
		t.Fatal("returning partition was not re-measured")
	}
}

// TestChurnControllerRoundTrip is the satellite round trip: a stable
// workload drives the self-tuned epoch budget up to MaxEpoch; an
// injected phase shift (the scan-vs-rand flip of examples/adaptive)
// snaps it back down within two epochs.
func TestChurnControllerRoundTrip(t *testing.T) {
	const capacity = 4096
	const epoch = 1 << 16
	const maxEpoch = 8 * epoch
	ac := buildAdaptive(t, capacity, 1, 2, adaptive.Config{
		EpochAccesses: epoch,
		MaxEpoch:      maxEpoch,
		SelfTune:      true,
		Seed:          23,
	})

	rng := hash.NewSplitMix64(9)
	buf := make([]uint64, 4096)
	stable := func() {
		for i := range buf {
			buf[i] = rng.Uint64n(1024) | 1<<48
		}
		feed(ac, buf, 0)
		for i := range buf {
			buf[i] = rng.Uint64n(512) | 2<<48
		}
		feed(ac, buf, 1)
	}
	// Phase 1: stable traffic. Reaching MaxEpoch needs 3 doublings × 2
	// calm epochs, plus slack for the early novel-curve epochs; feed
	// generously and watch the controller.
	deadlineEpochs := 64
	for e := 0; e < deadlineEpochs; e++ {
		st := ac.Controller()
		if st.EpochAccesses == maxEpoch {
			break
		}
		// One current-budget epoch's worth of traffic.
		for fed := int64(0); fed < st.EpochAccesses; fed += int64(2 * len(buf)) {
			stable()
		}
	}
	st := ac.Controller()
	if st.EpochAccesses != maxEpoch {
		t.Fatalf("stable workload never reached MaxEpoch: budget %d after %d epochs (churn %.3f)",
			st.EpochAccesses, st.Epochs, st.Churn)
	}
	if err := ac.Err(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: phase shift — partition 0 flips from a 1k-line random
	// working set to a 3k-line cyclic scan over a fresh address range.
	var pos uint64
	shifted := func() {
		for i := range buf {
			buf[i] = (pos + 1<<20) | 1<<48
			pos = (pos + 1) % 3072
		}
		feed(ac, buf, 0)
		for i := range buf {
			buf[i] = rng.Uint64n(512) | 2<<48
		}
		feed(ac, buf, 1)
	}
	epochsBefore := ac.Controller().Epochs
	for ac.Controller().Epochs < epochsBefore+2 {
		shifted()
	}
	st = ac.Controller()
	if st.EpochAccesses >= maxEpoch {
		t.Fatalf("churn spike did not shrink the epoch budget within two epochs: budget %d, churn %.3f",
			st.EpochAccesses, st.Churn)
	}
	if !st.SelfTune || st.MinEpoch != epoch || st.MaxEpoch != maxEpoch {
		t.Fatalf("controller state inconsistent: %+v", st)
	}
}

// TestWeightedTenantAttractsCapacity: two partitions with identical
// workloads; weighting one 8× must shift its allocation share after the
// loop has measured — and the live weight must be visible in the
// controller snapshot.
func TestWeightedTenantAttractsCapacity(t *testing.T) {
	const capacity = 4096
	ac := buildAdaptive(t, capacity, 1, 2, adaptive.Config{
		EpochAccesses: 1 << 40,
		Seed:          24,
	})
	if got := ac.Weights(); got != nil {
		t.Fatalf("fresh cache has weights %v", got)
	}
	if err := ac.SetWeight(1, 8); err != nil {
		t.Fatal(err)
	}
	rng := hash.NewSplitMix64(11)
	buf := make([]uint64, 4096)
	for e := 0; e < 8; e++ {
		for p := 0; p < 2; p++ {
			for i := range buf {
				// Both partitions want ~3k lines; the cache fits ~4k total.
				buf[i] = rng.Uint64n(3072) | uint64(p+1)<<48
			}
			feed(ac, buf, p)
		}
		if err := ac.ForceEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := ac.Allocations()
	if allocs[1] <= allocs[0] {
		t.Fatalf("8×-weighted partition got %d lines vs %d", allocs[1], allocs[0])
	}
	st := ac.Controller()
	if len(st.Weights) != 2 || st.Weights[0] != 1 || st.Weights[1] != 8 {
		t.Fatalf("controller weights = %v", st.Weights)
	}
	if st.Allocator != "hill" {
		t.Fatalf("controller allocator = %q", st.Allocator)
	}
	// Validation at the API boundary.
	if err := ac.SetWeight(0, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := ac.SetPartitionLines(0, 100, 50); err == nil {
		t.Fatal("cap below floor accepted")
	}
	if err := ac.SetPartitionLines(1, 512, 0); err != nil {
		t.Fatal(err)
	}
}
