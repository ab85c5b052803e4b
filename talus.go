// Package talus is a from-scratch reproduction of "Talus: A Simple Way to
// Remove Cliffs in Cache Performance" (Beckmann & Sanchez, HPCA 2015): a
// cache-partitioning technique that makes any replacement policy's miss
// curve convex by splitting each access stream across two hidden shadow
// partitions.
//
// This root package is the serving and Talus-math API:
//
//   - miss curves and convex hulls (NewCurve, ConvexHull, Convexify);
//   - the Talus configuration math (Configure, Config) — Theorems 4 and 6;
//   - the runtime (NewShadowedCache) that routes sampled accesses into
//     shadow partitions of a partitioned cache built with BuildCache;
//   - the online control loop: an epoch-driven runtime over a sharded,
//     per-shard-locked LRU cache (ShardedCache, WithShards) that
//     monitors the live stream with one sampled LRU-stack monitor per
//     partition, convexifies the measured curves, hill-climbs on the
//     hulls (optimal there, so there is no allocator to choose), and
//     live-reconfigures shadow sizes and sampling rates at one fixed
//     interval — the paper's end-to-end system (§VI),
//     goroutine-safe. Construct it with New (functional options; zero
//     options yield a working stack) and, when configured with a
//     wall-clock epoch interval, Close it when done;
//   - the keyed serving layer (NewStore): Get/Set/Delete over
//     (tenant, key) pairs with real value storage, per-tenant Stats,
//     live measured/hulled miss Curves, and a record hook capturing
//     front-end traffic as replayable traces — plus the stdlib HTTP
//     front-end (NewServeHandler, cmd/talus-serve) and the
//     consistent-hash cluster tier (NewCluster, NewRing) over it.
//
// The simulator that regenerates the paper's figures (workload clones,
// size sweeps, multi-programmed mixes, trace replay) is a separate
// product: the cmd/talus-sim and cmd/talus-exp front ends drive it,
// and the server does not link it.
//
// See README.md for quickstarts, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for paper-vs-measured results; runnable examples
// are the asserted Example functions in example_test.go.
package talus

import (
	"talus/internal/adaptive"
	"talus/internal/cache"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/hull"
	"talus/internal/store"
)

// Re-exported core types. These are aliases, so values flow freely
// between the public API and the internal packages.
type (
	// MissCurve is a piecewise-linear miss curve: MPKI as a function of
	// cache size in lines.
	MissCurve = curve.Curve
	// Point is one (size, MPKI) measurement on a miss curve.
	Point = curve.Point
	// Config is a Talus shadow-partition configuration: hull anchors α
	// and β, sampling rate ρ, and shadow sizes s1, s2.
	Config = core.Config
	// ShadowedCache is the Talus runtime over a partitioned cache.
	ShadowedCache = core.ShadowedCache
	// PartitionedCache is the cache interface Talus partitions.
	PartitionedCache = core.PartitionedCache
	// ShardedCache is a goroutine-safe cache striped across locked shards.
	ShardedCache = cache.ShardedCache
	// CacheStats aggregates hit/miss counts over a cache's accesses.
	CacheStats = cache.Stats
	// AdaptiveCache is the online monitor→hull→Talus→allocator loop.
	AdaptiveCache = adaptive.Cache
	// AdaptiveConfig parameterizes the adaptive control loop.
	AdaptiveConfig = adaptive.Config
	// ControllerState is one read-only snapshot of the control loop:
	// epoch count, measured curve churn, the configured epoch budget,
	// current allocations/weights, and the last epoch step's error.
	ControllerState = adaptive.ControllerState
	// ControlState is the store-level control snapshot: ControllerState
	// plus per-tenant weight/allocation rows (GET /v1/control).
	ControlState = store.ControlState
	// TenantControl is one tenant's row in a ControlState.
	TenantControl = store.TenantControl
)

// CurveDistance measures how much two miss curves differ, normalized to
// [0, 1]: ∫|a−b| over ∫max(a,b) across their union size range. The
// control loop reports it as the epoch-to-epoch churn signal.
func CurveDistance(a, b *MissCurve) float64 { return curve.Distance(a, b) }

// DefaultMargin is the paper's 5% sampling-rate safety margin (§VI-B).
const DefaultMargin = core.DefaultMargin

// LinesPerMB converts between the two capacity units used throughout:
// cache lines (64 B) and megabytes.
const LinesPerMB = curve.LinesPerMB

// MBToLines converts megabytes to cache lines.
func MBToLines(mbSize float64) float64 { return curve.MBToLines(mbSize) }

// LinesToMB converts cache lines to megabytes.
func LinesToMB(lines float64) float64 { return curve.LinesToMB(lines) }

// NewCurve builds a miss curve from points with strictly increasing sizes.
func NewCurve(points []Point) (*MissCurve, error) { return curve.New(points) }

// MustCurve is NewCurve that panics on invalid input.
func MustCurve(points []Point) *MissCurve { return curve.MustNew(points) }

// ConvexHull returns the lower convex hull of a miss curve — the curve
// Talus realizes (Theorem 6).
func ConvexHull(c *MissCurve) *MissCurve { return hull.Lower(c) }

// Convexify replaces each curve with its hull: the Talus pre-processing
// step that lets any partitioning algorithm assume convexity.
func Convexify(curves []*MissCurve) []*MissCurve { return core.Convexify(curves) }

// Configure computes the Talus shadow-partition configuration for a
// partition of s lines under miss curve m with the given safety margin.
func Configure(m *MissCurve, s, margin float64) (Config, error) {
	return core.Configure(m, s, margin)
}

// InterpolatedMPKI evaluates m's convex hull at size s: the miss rate
// Talus promises there.
func InterpolatedMPKI(m *MissCurve, s float64) float64 {
	return core.InterpolatedMPKI(m, s)
}

// NewShadowedCache wraps a partitioned cache (with 2×numLogical hardware
// partitions) in the Talus runtime.
func NewShadowedCache(inner PartitionedCache, numLogical int, margin float64, seed uint64) (*ShadowedCache, error) {
	return core.NewShadowedCache(inner, numLogical, margin, seed)
}

// BuildCache constructs a partitioned cache: scheme is one of "none",
// "way", "set", "vantage", "futility", "ideal"; policyName one of "LRU",
// "SRRIP", "BRRIP", "DRRIP", "TA-DRRIP", "DIP", "PDP", "Random".
//
// Use New with functional options (WithScheme, WithShards, ...) for the
// full adaptive stack, whose arrays are always LRU; BuildCache is for
// callers assembling the layers by hand (e.g. a ShadowedCache over a
// custom inner cache) under any policy.
func BuildCache(scheme string, capacityLines int64, assoc, numPartitions int, policyName string, threads int, seed uint64) (PartitionedCache, error) {
	return cache.Build(scheme, capacityLines, assoc, numPartitions, policyName, threads, seed)
}
