package monitor

import (
	"runtime"
	"sync"
	"testing"

	"talus/internal/hash"
)

// TestSlicedObserveDuringEpochCurve races observers against epoch
// closes; under -race this pins that EpochCurve and concurrent Observe
// share the bank's lock. Timing decides which epoch a racing access
// lands in, so the assertion is race-cleanliness plus a well-formed
// curve, not specific counter values.
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
