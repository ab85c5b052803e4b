// Package adaptive closes the paper's end-to-end control loop (§VI):
// monitor → hull → Talus → allocator → reconfigure, driven online by the
// access stream itself. The paper's system is not an offline curve
// transformer but a cache that reconfigures itself: UMONs observe the
// live stream, Talus convexifies the measured miss curves, and a
// partitioning algorithm reallocates capacity at a fixed interval
// (10 ms in §VI-C). This package is that loop in software.
//
// Build assembles the stack over LRU arrays, the only policy the
// loop's LRU-stack monitors describe (see Build). Cache wraps a
// core.ShadowedCache and a Loop, which keeps one
// monitor.SlicedEpochMonitor per logical partition on the pre-sampling
// access stream (monitors must see the full stream; the Talus sampler
// splits it afterwards). Every EpochAccesses observed accesses, the
// crossing goroutine runs one Loop.Step, which:
//
//  1. extracts each partition's EWMA miss curve from its monitor bank
//     (misses per kilo-access, all partitions sharing one denominator so
//     curve magnitudes compare as absolute miss counts);
//  2. convexifies the curves (core.Convexify — the Talus pre-processing
//     step);
//  3. hill-climbs on the hulls (alloc.HillClimbAllocator) to divide the
//     partitionable capacity — optimal on convex curves for any
//     weights, so there is no allocator to choose;
//
// and then live-reconfigures shadow sizes and sampling rates via
// core.ShadowedCache.Reconfigure (the raw curves go down too, so
// already-convex partitions collapse to a single shadow partition). The
// multi-program simulator (sim.RunMix) runs the same Step, varying only
// the allocator, the hull flag and the objective weights.
//
// # One speed, and the control plane
//
// The loop runs at the interval its caller configured — EpochAccesses,
// plus the EpochInterval ticker when set — and nothing varies it; the
// monitors' EWMA retention is monitor.DefaultRetain. Each epoch also
// measures how much every partition's curve moved (curve.Distance,
// access-share-weighted): that churn is reported, not acted on —
// stretching epochs on low churn saves about 0.1 % of a request and
// costs hit ratio on phased traffic (EXPERIMENTS.md, "A control loop
// with one speed"). Epochs that observed zero accesses are complete
// no-ops, and a partition idle for an epoch keeps its previous curve
// untouched instead of decaying toward zero. SetWeight adjusts the
// allocation Request live; a weight the allocator would refuse is
// refused at New and at SetWeight. Controller() snapshots the whole
// state (ControllerState — what serve's GET /v1/control returns),
// including the last epoch step's error: a failed step leaves the
// allocation standing, so that is where an operator sees it.
//
// # Concurrency
//
// All methods are safe for concurrent use when the ShadowedCache's inner
// cache is (wrap it in a cache.ShardedCache). An access takes exactly
// one lock in the cache — its shard's — and, when the monitor samples
// it, one more: its partition monitor's. The lane's epoch access count
// is an atomic. The epoch step serializes on a TryLock so at most one
// goroutine reconfigures while the rest keep serving traffic through
// the immutable-H3 / atomic-limit sampling datapath. Over a
// single-threaded inner cache the loop still works and is exactly as
// single-threaded as that cache.
package adaptive
