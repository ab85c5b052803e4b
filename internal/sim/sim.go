package sim

import (
	"talus/internal/core"
	"talus/internal/workload"
)

// Table I parameters used by the analytic model and default experiment
// configurations.
const (
	MemLatency   = 200 // cycles to main memory
	DefaultAssoc = 32  // 32-way set-associative LLC
	CoresMP      = 8   // multi-programmed setup core count
	LLCPerCoreMB = 1   // 1 MB of LLC per core
)

// IPC evaluates the analytic core model for an app at a given MPKI.
func IPC(spec workload.Spec, mpki float64) float64 { return 1 / CPI(spec, mpki) }

// CPI evaluates the analytic core model's cycles-per-instruction.
func CPI(spec workload.Spec, mpki float64) float64 {
	return spec.CPIBase + mpki/1000*MemLatency/spec.MLP
}

// margin resolves a configured Talus safety margin: 0 selects the
// paper's DefaultMargin (5%), a negative value disables the margin.
func margin(m float64) float64 {
	if m == 0 {
		return core.DefaultMargin
	}
	return max(m, 0)
}

// defaultMonitorPoints is the paper's per-size monitor count for
// profiling a policy without the stack property (§VI-C: 64 points).
const defaultMonitorPoints = 64

// replacesLRU reports whether cache.Build(scheme, …, policyName, …)
// evicts in LRU order, so that one LRU stack yields its whole miss curve.
func replacesLRU(scheme, policyName string) bool {
	return scheme == "ideal" || policyName == "LRU" || policyName == "lru"
}
