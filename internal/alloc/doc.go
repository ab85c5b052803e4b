// Package alloc implements the cache partitioning algorithms the paper
// compares (§VII-D):
//
//   - WeightedHillClimb: trivial linear-time greedy hill climbing, which
//     is optimal on convex curves (the whole point of Talus) but gets
//     stuck in local optima on cliffy curves;
//   - WeightedLookahead: Qureshi & Patt's UCP Lookahead, the quadratic
//     heuristic that copes with non-convexity by considering
//     all-or-nothing extensions;
//   - Fair and WeightedFair: equal allocations, the paper's fairness
//     baseline (Fig. 13);
//   - WeightedOptimalDP: exact dynamic programming over the granule grid,
//     used to validate the others (optimal partitioning is NP-complete
//     only in problem size encodings; on a fixed grid DP is exact and
//     polynomial).
//
// All algorithms operate on miss curves in MPKI (misses per
// kilo-instruction), treat them as piecewise-linear, allocate in integer
// multiples of a granule, and return per-partition line counts summing to
// the budget.
//
// # Requests and weights
//
// Allocators consume a Request: the curves, budget and granule plus
// optional per-partition objective Weights (the allocator minimizes
// Σ wᵢ·missesᵢ — §VII-D's point that hulls make any objective easy).
// The Weighted* functions implement each algorithm over a Request;
// NewRequest builds the uniform one. WeightedHillClimb stays optimal on
// hulls for any weights: on convex curves WeightedLookahead and
// WeightedOptimalDP reach exactly its weighted cost
// (TestWeightedAllocatorsAgreeOnHulls), which is why the
// adaptive loop (internal/adaptive) runs hill climbing and nothing else.
// The other algorithms serve the mix simulator's comparisons on raw
// curves (Figs. 12–13).
package alloc
