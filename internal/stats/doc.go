// Package stats provides small, dependency-free statistical helpers used
// throughout the simulator and the experiment harness: means (arithmetic,
// geometric), dispersion (variance, coefficient of variation), quantiles,
// and the paper's weighted and harmonic speedups.
//
// All functions operate on float64 slices, ignore nothing, and treat empty
// input as an error-free zero result unless documented otherwise. They are
// deliberately simple: the experiments report distributions over at most a
// few hundred samples.
package stats
