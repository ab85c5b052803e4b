package adaptive_test

import (
	"testing"
	"time"

	"talus/internal/adaptive"
	"talus/internal/hash"
)

// TestEpochIntervalTicker proves the wall-clock trigger: traffic far
// below the access-count threshold still gets reconfigured, because the
// background ticker drives the epoch step on time.
func TestEpochIntervalTicker(t *testing.T) {
	ac := buildAdaptive(t, 4096, 1, 2, adaptive.Config{
		EpochAccesses: 1 << 40, // the access clock will never fire
		EpochInterval: time.Millisecond,
		Seed:          5,
	})
	defer ac.Close()

	// A trickle of traffic: enough to measure, nowhere near 2^40.
	rng := hash.NewSplitMix64(9)
	buf := make([]uint64, 256)
	for i := range buf {
		buf[i] = rng.Uint64n(1024) | 1<<48
	}
	feed(ac, buf, 0)

	// Wait for a tick that measured the trickle (an idle tick racing in
	// before the batch is a trivially successful epoch with no curve).
	deadline := time.Now().Add(5 * time.Second)
	for ac.Curve(0) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("ticker never measured an epoch (%d epochs ran)", ac.Epochs())
		}
		time.Sleep(time.Millisecond)
	}
	if err := ac.Err(); err != nil {
		t.Fatalf("ticker epoch error: %v", err)
	}
	if ac.Epochs() == 0 {
		t.Fatal("curve extracted but epoch count still zero")
	}
}

// TestCloseStopsTicker asserts Close is idempotent, halts the
// background goroutine, and leaves the access-driven datapath usable.
func TestCloseStopsTicker(t *testing.T) {
	ac := buildAdaptive(t, 4096, 2, 2, adaptive.Config{
		EpochInterval: time.Millisecond,
		Seed:          6,
	})
	if err := ac.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ac.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	epochs := ac.Epochs()
	time.Sleep(20 * time.Millisecond)
	if got := ac.Epochs(); got != epochs {
		t.Fatalf("epochs advanced from %d to %d after Close", epochs, got)
	}
	// The datapath (and ForceEpoch) still work after Close.
	ac.Access(1|1<<48, 0)
	if err := ac.ForceEpoch(); err != nil {
		t.Fatal(err)
	}
	// Close on a ticker-less cache is a no-op.
	plain := buildAdaptive(t, 4096, 1, 1, adaptive.Config{Seed: 7})
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
}
