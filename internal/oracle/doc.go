// Package oracle is the repo's independent ground truth for LRU miss
// curves: an exact Mattson stack-distance simulator plus closed-form
// analytic curves for the regular access patterns, cross-checked
// against each other and used to validate the entire measured
// monitor → hull → Talus stack from the outside.
//
// Everything else in the repo that produces a miss curve is sampled:
// the monitor bank samples the stream (Theorem 4) and quantizes sizes to
// way granularity, and round-trip tests before this package existed
// compared the monitor only to simulated caches built from the same
// assumptions. The oracle is different in kind — StackSim computes the
// reuse (stack) distance of every access exactly, so by Mattson's
// inclusion property a single pass yields the true LRU miss count at
// every cache size simultaneously. No sampling, no set hashing, no way
// quantization. For the regular patterns (cyclic scans, strided
// streams, pointer-chase rings, uniform and zipf IRM) Analytic supplies
// a second, closed-form derivation of the same curve, so the simulator
// and the formulas check each other before either checks the monitor.
//
// The package underwrites four test tiers (see oracle tests and
// DESIGN.md "Validation oracle"):
//
//   - monitor accuracy: CompareMonitor feeds one stream to the monitor
//     bank that serves requests (monitor.SlicedEpochMonitor, one slice,
//     one epoch) and a StackSim and bounds curve.Distance between the
//     two curves for every generator in Scenarios;
//   - hull soundness: lower hulls of oracle curves are verified to be
//     true lower convex envelopes;
//   - Talus recombination: Theorem 6 configurations computed on oracle
//     curves must satisfy Eq. 5, ρ·m(α) + (1−ρ)·m(β) = hull(s), and
//     empirical Talus runs driven by oracle curves must land near the
//     hull;
//   - drift pinning: golden files freeze oracle curves per generator so
//     a behavioural change in any generator is a reviewable diff.
//
// Curves are produced in misses per kilo-access (pass kiloUnits =
// accesses/1000 to Curve), the unit the monitor tests already use;
// callers wanting per-kilo-instruction divide by APKI/1000 themselves.
package oracle
