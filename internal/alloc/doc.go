// Package alloc implements the cache partitioning algorithms the paper
// compares (§VII-D):
//
//   - HillClimb: trivial linear-time greedy hill climbing, which is
//     optimal on convex curves (the whole point of Talus) but gets stuck
//     in local optima on cliffy curves;
//   - Lookahead: Qureshi & Patt's UCP Lookahead, the quadratic heuristic
//     that copes with non-convexity by considering all-or-nothing
//     extensions;
//   - Fair: equal allocations, the paper's fairness baseline (Fig. 13);
//   - OptimalDP: exact dynamic programming over the granule grid, used to
//     validate the others (optimal partitioning is NP-complete only in
//     problem size encodings; on a fixed grid DP is exact and polynomial).
//
// All algorithms operate on miss curves in MPKI (misses per
// kilo-instruction), treat them as piecewise-linear, allocate in integer
// multiples of a granule, and return per-partition line counts summing to
// the budget.
//
// # Requests, weights, and bounds
//
// Allocators consume a Request: the curves and budget plus optional
// per-partition objective Weights (the allocator minimizes
// Σ wᵢ·missesᵢ — §VII-D's point that hulls make any objective easy),
// MinLines floors, and MaxLines caps. The Weighted* functions implement
// each algorithm over a Request; the plain functions (HillClimb, ...)
// call them with the uniform, unconstrained request. WeightedHillClimb
// stays optimal on hulls for any weights (TestWeightedHillClimbOptimal
// checks it against WeightedOptimalDP).
package alloc
