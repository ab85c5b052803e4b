// Allocator: the common interface over the partitioning algorithms, so
// the epoch step (adaptive.Loop.Step) takes the algorithm as an argument
// and the mix simulator's mode table holds one value per mode.

package alloc

// Allocator divides a capacity budget among partitions based on their
// miss curves. Implementations must be pure (no state mutated by
// Allocate), so one Allocator value may be shared across goroutines and
// reconfiguration epochs.
type Allocator interface {
	// Name returns the allocator's short name ("hill", "lookahead",
	// "fair").
	Name() string
	// Allocate returns per-partition line counts summing to req.Total,
	// allocated in multiples of req.Granule (plus sub-granule residue),
	// weighing partitions by the request's weights.
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
	// Talus, and the only one the adaptive loop runs.
	HillClimbAllocator Allocator = allocatorFunc{"hill", WeightedHillClimb}
	// LookaheadAllocator is WeightedLookahead: quadratic UCP Lookahead,
	// copes with cliffs.
	LookaheadAllocator Allocator = allocatorFunc{"lookahead", WeightedLookahead}
	// FairAllocator ignores the curves and the weights and splits the
	// budget equally.
	FairAllocator Allocator = allocatorFunc{"fair", WeightedFair}
)
