// Package workload generates the LLC access streams the evaluation runs
// on. The paper uses SPEC CPU2006; since those binaries and traces are
// proprietary, this package provides synthetic *clones*: mixtures of
// access-pattern primitives calibrated so each clone's LRU miss curve has
// the published shape — cliff positions, plateau heights, and convex
// regions per Figs. 1, 8, 10 and 13 (see DESIGN.md §2 for the
// substitution rationale).
//
// The primitives produce cliffs by the same mechanism real programs do:
// a cyclic scan over F lines under LRU misses on every access below F
// lines of cache and hits on every access above (the libquantum behavior
// of Fig. 1); a uniform random working set of W lines yields a smooth,
// convex curve saturating at W; Zipfian references yield long convex
// tails. Because Talus is blind to individual lines and driven only by
// the miss curve (§III), any stream realizing a given curve exercises
// Talus identically.
//
// A Pattern carries position state, so a stream is started by building
// a fresh one: Spec.Build is the only way to get one, each App builds
// its own, and patterns are never copied. The named generators
// (strided, pointerchase, ...) are gen: parameter strings under a bare
// name, so each stream is defined once.
//
// Streams are generated directly at LLC granularity: the paper's L1/L2
// hierarchy filters temporal locality, so the clones' APKI (LLC accesses
// per kilo-instruction) are post-L2 rates.
package workload
