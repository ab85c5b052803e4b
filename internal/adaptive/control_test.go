package adaptive_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
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

// TestChurnTracksPhaseShift: churn is a reported signal. Stable traffic
// settles it below 0.05; an injected phase shift (one partition flips
// from random reuse to a cyclic scan) reads above 0.30 within two
// epochs — and the epoch budget stays the configured one throughout,
// because nothing acts on the signal.
func TestChurnTracksPhaseShift(t *testing.T) {
	const capacity = 4096
	const epoch = 1 << 16
	ac := buildAdaptive(t, capacity, 1, 2, adaptive.Config{
		EpochAccesses: epoch,
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
	// Phase 1: stable traffic. The first epochs measure novel curves
	// (churn 1 against nil); after that successive curves barely move.
	for ac.Controller().Epochs < 8 {
		stable()
	}
	st := ac.Controller()
	if st.Churn >= 0.05 {
		t.Fatalf("stable workload still reads churn %.3f after %d epochs", st.Churn, st.Epochs)
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
	var peak float64
	for seen := st.Epochs; seen < st.Epochs+2; {
		shifted()
		if now := ac.Controller(); now.Epochs > seen {
			seen, peak = now.Epochs, max(peak, now.Churn)
		}
	}
	if peak <= 0.30 {
		t.Fatalf("phase shift read churn %.3f within two epochs, want > 0.30", peak)
	}
	if got := ac.Controller().EpochAccesses; got != epoch {
		t.Fatalf("epoch budget moved from %d to %d", epoch, got)
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

// TestBadWeightsRefused: New used to accept weights SetWeight refuses,
// and every epoch then failed in the allocator, freezing the initial
// fair split. Both entry points now refuse the same values.
func TestBadWeightsRefused(t *testing.T) {
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			_, err := adaptive.Build("vantage", 4096, 16, 1, 2, 0.05, adaptive.Config{
				Weights: []float64{w, 1},
			})
			if err == nil || !strings.Contains(err.Error(), "need finite, non-negative") {
				t.Fatalf("Build with weight %g: err = %v", w, err)
			}
			ac := buildAdaptive(t, 4096, 1, 2, adaptive.Config{})
			if err := ac.SetWeight(0, w); err == nil {
				t.Fatalf("SetWeight(0, %g) accepted", w)
			}
		})
	}
}

// randEpoch feeds each of a two-partition cache's partitions 4096 draws
// from its own 1k-line working set, then forces the epoch step.
func randEpoch(ac *adaptive.Cache, rng *hash.SplitMix64) error {
	buf := make([]uint64, 4096)
	for p := 0; p < 2; p++ {
		for i := range buf {
			buf[i] = rng.Uint64n(1024) | uint64(p+1)<<48
		}
		feed(ac, buf, p)
	}
	return ac.ForceEpoch()
}

// TestInfeasibleFloorsRefused: a floor vector the partitionable capacity
// cannot hold used to be accepted and then fail inside the allocator on
// every epoch, freezing the allocation silently. SetPartitionLines
// refuses it up front, and a refusal changes nothing.
func TestInfeasibleFloorsRefused(t *testing.T) {
	const capacity = 4096
	ac := buildAdaptive(t, capacity, 1, 2, adaptive.Config{EpochAccesses: 1 << 40, Seed: 25})
	budget := ac.Shadowed().Inner().PartitionableCapacity()
	if err := ac.SetPartitionLines(0, budget/2, 0); err != nil {
		t.Fatal(err)
	}
	before := ac.Allocations()
	if err := ac.SetPartitionLines(1, budget/2+64, 0); err == nil {
		t.Fatal("floors summing past the partitionable capacity accepted")
	}
	st := ac.Controller()
	if st.MinLines[0] != budget/2 || st.MinLines[1] != 0 || st.MaxLines[1] != 0 {
		t.Fatalf("refused bounds leaked into the controller: %+v", st)
	}
	if got := ac.Allocations(); !slices.Equal(got, before) {
		t.Fatalf("refusal moved the allocation: %v -> %v", before, got)
	}
	// The next epoch runs clean on the bounds that were accepted.
	if err := randEpoch(ac, hash.NewSplitMix64(13)); err != nil {
		t.Fatalf("epoch after a refused floor: %v", err)
	}
	if got := ac.Allocations()[0]; got < budget/2 {
		t.Fatalf("accepted floor %d not honoured: partition 0 has %d lines", budget/2, got)
	}
}

// TestEpochErrorIsVisible: a failing epoch step leaves the allocation
// where it stood, so the failure must show where an operator looks —
// Controller().LastError, served at /v1/control — and clear again on the
// next good step. Caps that cannot absorb the budget are the allocator's
// own check, which no setter pre-empts.
func TestEpochErrorIsVisible(t *testing.T) {
	ac := buildAdaptive(t, 4096, 1, 2, adaptive.Config{EpochAccesses: 1 << 40, Seed: 26})
	rng := hash.NewSplitMix64(15)
	step := func() error { return randEpoch(ac, rng) }
	if err := step(); err != nil {
		t.Fatal(err)
	}
	if got := ac.Controller().LastError; got != "" {
		t.Fatalf("good epoch reports last_error %q", got)
	}
	good := ac.Allocations()

	for p := 0; p < 2; p++ {
		if err := ac.SetPartitionLines(p, 0, 100); err != nil {
			t.Fatal(err)
		}
	}
	if err := step(); err == nil {
		t.Fatal("caps summing to 200 lines absorbed the whole budget")
	}
	st := ac.Controller()
	if !strings.Contains(st.LastError, "caps sum to 200") {
		t.Fatalf("last_error = %q, want the allocator's caps refusal", st.LastError)
	}
	if !slices.Equal(st.Allocations, good) {
		t.Fatalf("failed epoch moved the allocation: %v -> %v", good, st.Allocations)
	}

	if err := ac.SetPartitionLines(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := step(); err != nil {
		t.Fatal(err)
	}
	if got := ac.Controller().LastError; got != "" {
		t.Fatalf("last_error %q survived a good epoch", got)
	}
}
