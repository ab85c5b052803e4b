// Package talus is a from-scratch reproduction of "Talus: A Simple Way to
// Remove Cliffs in Cache Performance" (Beckmann & Sanchez, HPCA 2015): a
// cache-partitioning technique that makes any replacement policy's miss
// curve convex by splitting each access stream across two hidden shadow
// partitions.
//
// This root package is the public API. It re-exports the building blocks
// a downstream user needs:
//
//   - miss curves and convex hulls (NewCurve, ConvexHull, Convexify);
//   - the Talus configuration math (Configure, Config) — Theorems 4 and 6;
//   - the runtime (NewShadowedCache) that routes sampled accesses into
//     shadow partitions of a partitioned cache built with BuildCache;
//   - optimal bypassing (OptimalBypass, BypassCurve) for §V-C comparisons;
//   - partitioning algorithms (HillClimb, Lookahead, Fair, OptimalDP);
//   - the SPEC CPU2006 workload clones (Workloads, LookupWorkload) and the
//     simulation harness (RunSweep, RunMix) that regenerates the paper's
//     figures;
//   - the concurrency layer: a sharded, per-shard-locked cache
//     (ShardedCache, WithShards) that serves concurrent traffic under
//     the Talus runtime, one Access per reference — and the
//     parallel experiment engine (SweepConfig.Parallelism, RunMixes)
//     whose results are byte-identical to sequential runs;
//   - the online control loop: an epoch-driven runtime that monitors
//     the live stream with per-partition UMONs, convexifies the
//     measured curves, runs a pluggable Allocator over the hulls, and
//     live-reconfigures shadow sizes and sampling rates at one fixed
//     interval — the paper's end-to-end system (§VI), goroutine-safe
//     over a sharded inner cache. Construct it with New (functional
//     options; zero options yield a working stack) and, when configured
//     with a wall-clock epoch interval, Close it when done;
//   - the keyed serving layer (NewStore): Get/Set/Delete over
//     (tenant, key) pairs with real value storage, per-tenant Stats,
//     live measured/hulled miss Curves, and a record hook capturing
//     front-end traffic as replayable traces — plus the stdlib HTTP
//     front-end (NewServeHandler, cmd/talus-serve) over it.
//
// See README.md for quickstarts, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for paper-vs-measured results; runnable examples
// live in example_test.go and under examples/.
package talus

import (
	"talus/internal/adaptive"
	"talus/internal/alloc"
	"talus/internal/bypass"
	"talus/internal/cache"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/hull"
	"talus/internal/sim"
	"talus/internal/store"
	"talus/internal/workload"
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
	// BypassConfig describes an optimal-bypassing operating point.
	BypassConfig = bypass.Config
	// WorkloadSpec describes one synthetic application clone.
	WorkloadSpec = workload.Spec
	// SweepConfig parameterizes a single-program size sweep.
	SweepConfig = sim.SweepConfig
	// MixConfig parameterizes a multi-programmed run.
	MixConfig = sim.MixConfig
	// MixResult reports per-app outcomes of a multi-programmed run.
	MixResult = sim.MixResult
	// Mode names a multi-program cache-management scheme.
	Mode = sim.Mode
	// Allocator is the pluggable capacity-partitioning policy interface.
	Allocator = alloc.Allocator
	// AllocRequest is one capacity-allocation problem: per-partition
	// hulls plus the total/granule budget and optional per-partition
	// Weights, MinLines floors, and MaxLines caps. Build uniform
	// requests with NewAllocRequest.
	AllocRequest = alloc.Request
	// AdaptiveCache is the online monitor→hull→Talus→allocator loop.
	AdaptiveCache = adaptive.Cache
	// AdaptiveConfig parameterizes the adaptive control loop.
	AdaptiveConfig = adaptive.Config
	// ControllerState is one read-only snapshot of the control loop:
	// epoch count, measured curve churn, the configured epoch budget,
	// current allocations/weights, and the last epoch step's error.
	ControllerState = adaptive.ControllerState
	// ControlState is the store-level control snapshot: ControllerState
	// plus per-tenant weight/bounds/allocation rows (GET /v1/control).
	ControlState = store.ControlState
	// TenantControl is one tenant's row in a ControlState.
	TenantControl = store.TenantControl
	// LineBounds is a tenant's [Min, Max] allocation bound in lines.
	LineBounds = store.LineBounds
	// AdaptiveRunConfig parameterizes RunAdaptive experiments.
	AdaptiveRunConfig = sim.AdaptiveConfig
	// AdaptiveRunResult reports an adaptive run's steady-state outcomes.
	AdaptiveRunResult = sim.AdaptiveResult
)

// Shared allocator values (all stateless and goroutine-safe).
var (
	// HillClimbAllocator is greedy hill climbing — optimal on hulls.
	HillClimbAllocator = alloc.HillClimbAllocator
	// LookaheadAllocator is UCP's Lookahead heuristic.
	LookaheadAllocator = alloc.LookaheadAllocator
	// FairAllocator returns equal shares.
	FairAllocator = alloc.FairAllocator
	// OptimalDPAllocator is the exact dynamic program.
	OptimalDPAllocator = alloc.OptimalDPAllocator
)

// AllocatorByName resolves "hill", "lookahead", "fair", or "optimal" to
// its shared Allocator value.
func AllocatorByName(name string) (Allocator, error) { return alloc.ByName(name) }

// NewAllocRequest builds the uniform AllocRequest — no weights, floors,
// or caps — equivalent to the plain (curves, total, granule) call.
func NewAllocRequest(curves []*MissCurve, total, granule int64) AllocRequest {
	return alloc.NewRequest(curves, total, granule)
}

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

// BuildCache constructs a simulated LLC: scheme is one of "none", "way",
// "set", "vantage", "ideal"; policyName one of "LRU", "SRRIP", "BRRIP",
// "DRRIP", "TA-DRRIP", "DIP", "PDP", "Random".
//
// Use New with functional options (WithScheme, WithPolicy, ...) for the
// full adaptive stack; BuildCache is for callers assembling the layers
// by hand (e.g. a ShadowedCache over a custom inner cache).
func BuildCache(scheme string, capacityLines int64, assoc, numPartitions int, policyName string, threads int, seed uint64) (PartitionedCache, error) {
	return sim.BuildCache(scheme, capacityLines, assoc, numPartitions, policyName, threads, seed)
}

// RunAdaptive drives one adaptive-runtime experiment: per-app traffic
// interleaved into an AdaptiveCache, miss rates measured over the
// converged tail.
func RunAdaptive(cfg AdaptiveRunConfig) (*AdaptiveRunResult, error) { return sim.RunAdaptive(cfg) }

// RecordTrace captures the named specs' interleaved access stream — the
// exact stream RunAdaptive would feed at the same seed — to a binary
// trace file (internal/trace format) with per-app metadata embedded,
// returning the record count. gz enables gzip compression.
func RecordTrace(path string, specs []WorkloadSpec, accessesPerApp int64, seed uint64, gz bool) (int64, error) {
	return sim.RecordSpecs(path, specs, accessesPerApp, seed, gz)
}

// RunAdaptiveTraceFile replays a recorded trace through the adaptive
// runtime: the cache is built for the trace's partition count and fed
// the recorded stream one Access per record, reproducing the live run
// exactly at a matching seed. cfg.Apps and cfg.AccessesPerApp are optional —
// the trace carries the traffic and (when recorded with metadata) the
// app parameters.
func RunAdaptiveTraceFile(cfg AdaptiveRunConfig, path string) (*AdaptiveRunResult, error) {
	return sim.RunAdaptiveTraceFile(cfg, path)
}

// WorkloadsFromTrace loads a recorded trace and returns one spec per
// recorded partition, each replaying its sub-stream — trace-backed apps
// for RunMix, RunSweep, or RunAdaptive. Anywhere an app name is
// accepted, "trace:<path>" resolves to the trace's flattened stream.
func WorkloadsFromTrace(path string) ([]WorkloadSpec, error) { return sim.SpecsFromTrace(path) }

// OptimalBypass finds the bypass fraction minimizing misses at size s
// (Eq. 6); BypassCurve evaluates it across sizes (Fig. 6).
func OptimalBypass(m *MissCurve, s float64) (BypassConfig, error) { return bypass.Optimal(m, s) }

// BypassCurve evaluates optimal bypassing at each size.
func BypassCurve(m *MissCurve, sizes []float64) (*MissCurve, error) {
	return bypass.Curve(m, sizes)
}

// HillClimb allocates total lines across partitions greedily — optimal on
// convex curves, stuck on cliffs.
func HillClimb(curves []*MissCurve, total, granule int64) ([]int64, error) {
	return alloc.HillClimb(curves, total, granule)
}

// Lookahead is UCP's quadratic partitioning heuristic.
func Lookahead(curves []*MissCurve, total, granule int64) ([]int64, error) {
	return alloc.Lookahead(curves, total, granule)
}

// Fair returns equal allocations.
func Fair(n int, total, granule int64) ([]int64, error) { return alloc.Fair(n, total, granule) }

// OptimalDP computes the exact misses-minimizing allocation by dynamic
// programming (ground truth for tests and ablations).
func OptimalDP(curves []*MissCurve, total, granule int64) ([]int64, error) {
	return alloc.OptimalDP(curves, total, granule)
}

// Workloads returns the names of all SPEC CPU2006 clones.
func Workloads() []string { return workload.Names() }

// MemoryIntensiveWorkloads returns the 18-app pool used for random mixes.
func MemoryIntensiveWorkloads() []string { return workload.MemoryIntensive() }

// LookupWorkload returns the named clone's spec.
func LookupWorkload(name string) (WorkloadSpec, bool) { return workload.Lookup(name) }

// RunSweep measures an app's miss curve over cache sizes.
func RunSweep(cfg SweepConfig) (*MissCurve, error) { return sim.RunSweep(cfg) }

// RunPoint measures an app's MPKI at one cache size.
func RunPoint(cfg SweepConfig, sizeLines int64, seed uint64) (float64, error) {
	return sim.RunPoint(cfg, sizeLines, seed)
}

// RunMix simulates a multi-programmed mix under a management mode.
func RunMix(cfg MixConfig) (*MixResult, error) { return sim.RunMix(cfg) }

// RunMixes simulates many mixes concurrently on a bounded worker pool
// (parallelism 0 → GOMAXPROCS); results are identical to sequential
// RunMix calls, in input order.
func RunMixes(cfgs []MixConfig, parallelism int) ([]*MixResult, error) {
	return sim.RunMixes(cfgs, parallelism)
}

// IPCOf evaluates the analytic core model for an app at a given MPKI.
func IPCOf(spec WorkloadSpec, mpki float64) float64 { return sim.IPC(spec, mpki) }

// Multi-program management modes (Figs. 12–13).
const (
	ModeLRU          = sim.ModeLRU
	ModeTADRRIP      = sim.ModeTADRRIP
	ModeHillLRU      = sim.ModeHillLRU
	ModeLookaheadLRU = sim.ModeLookaheadLRU
	ModeFairLRU      = sim.ModeFairLRU
	ModeTalusHill    = sim.ModeTalusHill
	ModeTalusFair    = sim.ModeTalusFair
)
