// Allocator: the common interface over the partitioning algorithms, so
// callers (the epoch simulator, the adaptive runtime, experiments) hold a
// pluggable policy value instead of switching on names at every
// reconfiguration.

package alloc

import "fmt"

// Allocator divides a capacity budget among partitions based on their
// miss curves. Implementations must be pure (no state mutated by
// Allocate), so one Allocator value may be shared across goroutines and
// reconfiguration epochs.
type Allocator interface {
	// Name returns the allocator's canonical name (as accepted by ByName).
	Name() string
	// Allocate returns per-partition line counts summing to req.Total,
	// allocated in multiples of req.Granule (plus sub-granule residue),
	// honoring the request's weights, floors, and caps.
	Allocate(req Request) ([]int64, error)
}

// allocatorFunc adapts a plain allocation function to the Allocator
// interface.
type allocatorFunc struct {
	name string
	fn   func(req Request) ([]int64, error)
}

func (a allocatorFunc) Name() string { return a.name }
func (a allocatorFunc) Allocate(req Request) ([]int64, error) {
	return a.fn(req)
}

// The package's algorithms as shared, stateless Allocator values.
var (
	// HillClimbAllocator is WeightedHillClimb: linear-time greedy, optimal
	// on convex (hulled) curves — the paper's allocator of choice under
	// Talus.
	HillClimbAllocator Allocator = allocatorFunc{"hill", WeightedHillClimb}
	// LookaheadAllocator is WeightedLookahead: quadratic UCP Lookahead,
	// copes with cliffs.
	LookaheadAllocator Allocator = allocatorFunc{"lookahead", WeightedLookahead}
	// FairAllocator ignores the curves and splits proportionally to the
	// request's weights (equal shares when uniform).
	FairAllocator Allocator = allocatorFunc{"fair", WeightedFair}
	// OptimalDPAllocator is the exact dynamic program (tests, ablations).
	OptimalDPAllocator Allocator = allocatorFunc{"optimal", WeightedOptimalDP}
)

// ByName resolves an allocator name ("hill", "lookahead", "fair",
// "optimal") to its shared Allocator value.
func ByName(name string) (Allocator, error) {
	switch name {
	case "hill":
		return HillClimbAllocator, nil
	case "lookahead":
		return LookaheadAllocator, nil
	case "fair":
		return FairAllocator, nil
	case "optimal":
		return OptimalDPAllocator, nil
	}
	return nil, fmt.Errorf("%w: unknown allocator %q (valid: fair, hill, lookahead, optimal)", ErrBadInput, name)
}
