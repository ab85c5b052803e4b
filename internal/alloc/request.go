// Request: the objective-aware allocation seam, and the one
// implementation of each algorithm. The plain functions in alloc.go
// answer "minimize total misses over these curves"; Request generalizes
// the question — per-partition weights price one partition's miss
// reduction above another's (QoS), and per-partition line floors and
// caps carve out guaranteed or bounded shares. The plain functions are
// the Weighted* ones on a Request carrying only curves, total, and
// granule: the weight factor is an exact ×1.0 and no constraint branch
// is taken.

package alloc

import (
	"fmt"
	"math"

	"talus/internal/curve"
)

// Request carries one allocation problem: divide Total lines among
// len(Curves) partitions in multiples of Granule, minimizing the
// configured objective subject to the per-partition constraints.
type Request struct {
	// Curves holds one piecewise-linear miss curve per partition
	// (convex hulls when the caller runs Talus pre-processing).
	Curves []*curve.Curve
	// Total is the capacity budget in lines; Granule the grid step.
	Total   int64
	Granule int64
	// Weights scales each partition's marginal miss reduction in the
	// objective: a weight-4 partition's saved miss counts four times a
	// weight-1 partition's, so capacity flows toward it until its
	// weighted marginal utility drops to the others'. nil means uniform
	// (weight 1 everywhere) — the minimize-total-misses objective.
	// Weights must be finite and non-negative.
	Weights []float64
	// MinLines is a per-partition floor: the allocator grants each
	// partition its floor (rounded up to whole granules, in partition
	// order, while budget remains) before optimizing. nil means no
	// floors.
	MinLines []int64
	// MaxLines is a per-partition cap: a partition never receives more
	// than its cap (to granule resolution). A zero entry means
	// unbounded. nil means no caps.
	MaxLines []int64
}

// NewRequest builds the plain (uniform, unconstrained) request from the
// three-argument call shape.
func NewRequest(curves []*curve.Curve, total, granule int64) Request {
	return Request{Curves: curves, Total: total, Granule: granule}
}

// weight returns partition i's objective weight (1 when unset).
func (r *Request) weight(i int) float64 {
	if r.Weights == nil {
		return 1
	}
	return r.Weights[i]
}

// minOf returns partition i's line floor (0 when unset).
func (r *Request) minOf(i int) int64 {
	if r.MinLines == nil {
		return 0
	}
	return r.MinLines[i]
}

// maxOf returns partition i's line cap (Total when unbounded).
func (r *Request) maxOf(i int) int64 {
	if r.MaxLines == nil || r.MaxLines[i] <= 0 {
		return r.Total
	}
	return r.MaxLines[i]
}

// validate checks the request and returns the partition count. Beyond
// the curve/total/granule checks it verifies the constraint
// vectors' lengths and values, and that the constraints are feasible:
// the floors must fit in the budget, and when every partition is
// capped the caps must be able to absorb it.
func (r *Request) validate() (int, error) {
	n := len(r.Curves)
	if n == 0 {
		return 0, fmt.Errorf("%w: no curves", ErrBadInput)
	}
	if r.Total < 0 || r.Granule <= 0 {
		return 0, fmt.Errorf("%w: total %d granule %d", ErrBadInput, r.Total, r.Granule)
	}
	for i, c := range r.Curves {
		if c == nil || c.NumPoints() == 0 {
			return 0, fmt.Errorf("%w: curve %d empty", ErrBadInput, i)
		}
	}
	if r.Weights != nil && len(r.Weights) != n {
		return 0, fmt.Errorf("%w: %d weights for %d partitions", ErrBadInput, len(r.Weights), n)
	}
	for i, w := range r.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return 0, fmt.Errorf("%w: weight %d = %g (need finite, non-negative)", ErrBadInput, i, w)
		}
	}
	if r.MinLines != nil && len(r.MinLines) != n {
		return 0, fmt.Errorf("%w: %d floors for %d partitions", ErrBadInput, len(r.MinLines), n)
	}
	if r.MaxLines != nil && len(r.MaxLines) != n {
		return 0, fmt.Errorf("%w: %d caps for %d partitions", ErrBadInput, len(r.MaxLines), n)
	}
	var sumMin int64
	capped, sumMax := true, int64(0)
	for i := 0; i < n; i++ {
		lo := r.minOf(i)
		if lo < 0 {
			return 0, fmt.Errorf("%w: floor %d = %d", ErrBadInput, i, lo)
		}
		sumMin += lo
		if r.MaxLines != nil && r.MaxLines[i] < 0 {
			return 0, fmt.Errorf("%w: cap %d = %d", ErrBadInput, i, r.MaxLines[i])
		}
		if hi := r.maxOf(i); hi < r.Total {
			if hi < lo {
				return 0, fmt.Errorf("%w: partition %d cap %d below floor %d", ErrBadInput, i, hi, lo)
			}
			sumMax += hi
		} else {
			capped = false
		}
	}
	if sumMin > r.Total {
		return 0, fmt.Errorf("%w: floors sum to %d, budget %d", ErrBadInput, sumMin, r.Total)
	}
	if capped && sumMax < r.Total {
		return 0, fmt.Errorf("%w: caps sum to %d, budget %d", ErrBadInput, sumMax, r.Total)
	}
	return n, nil
}

// grantFloors gives each partition its MinLines floor in whole granules
// (partition order, while budget remains) and returns the remaining
// budget. A no-op for requests without floors.
func (r *Request) grantFloors(out []int64) (remaining int64) {
	remaining = r.Total
	if r.MinLines == nil {
		return remaining
	}
	for i := range out {
		for out[i] < r.minOf(i) && remaining >= r.Granule {
			out[i] += r.Granule
			remaining -= r.Granule
		}
	}
	return remaining
}

// spreadLeftover assigns the unallocated remainder: whole granules
// round-robin over partitions with cap headroom, then the sub-granule
// residue (and any granules no single cap could hold whole) in
// partition order up to each cap. With no caps this is round-robin,
// then the residue to out[0]; validate
// guarantees the caps leave enough headroom to spend the budget.
func (r *Request) spreadLeftover(out []int64, remaining int64) {
	n := len(out)
	for i, stalled := 0, 0; remaining >= r.Granule && stalled < n; i = (i + 1) % n {
		if out[i]+r.Granule <= r.maxOf(i) {
			out[i] += r.Granule
			remaining -= r.Granule
			stalled = 0
		} else {
			stalled++
		}
	}
	for i := 0; remaining > 0 && i < n; i++ {
		if room := r.maxOf(i) - out[i]; room > 0 {
			g := min(room, remaining)
			out[i] += g
			remaining -= g
		}
	}
}

// WeightedHillClimb is HillClimb under the full Request: after granting
// the floors, it repeatedly gives one granule to the partition whose
// weighted miss reduction is largest, skipping partitions at their
// caps. On convex curves this greedy rule is optimal for the objective
// Σ wᵢ·missesᵢ (each partition's weighted marginal utility is
// non-increasing, so the globally best granule is always a locally best
// one — verified against WeightedOptimalDP by the property tests).
func WeightedHillClimb(req Request) ([]int64, error) {
	n, err := req.validate()
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	remaining := req.grantFloors(out)
	for remaining >= req.Granule {
		best := -1
		var bestGain float64
		for i, c := range req.Curves {
			if out[i]+req.Granule > req.maxOf(i) {
				continue
			}
			x := float64(out[i])
			gain := (c.Eval(x) - c.Eval(x+float64(req.Granule))) * req.weight(i)
			if gain > bestGain {
				bestGain = gain
				best = i
			}
		}
		if best < 0 {
			break // no weighted utility anywhere below the caps
		}
		out[best] += req.Granule
		remaining -= req.Granule
	}
	req.spreadLeftover(out, remaining)
	return out, nil
}

// WeightedLookahead is UCP Lookahead under the full Request: every
// partition proposes the extension maximizing its weighted marginal
// utility per granule (bounded by its cap); the best proposal wins.
func WeightedLookahead(req Request) ([]int64, error) {
	n, err := req.validate()
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	remaining := req.grantFloors(out)
	for remaining >= req.Granule {
		best := -1
		var bestRate float64
		var bestExt int64
		for i, c := range req.Curves {
			x := float64(out[i])
			base := c.Eval(x)
			w := req.weight(i)
			hi := req.maxOf(i)
			for ext := req.Granule; ext <= remaining && out[i]+ext <= hi; ext += req.Granule {
				gain := (base - c.Eval(x+float64(ext))) * w
				rate := gain / float64(ext/req.Granule)
				if rate > bestRate {
					bestRate = rate
					best = i
					bestExt = ext
				}
			}
		}
		if best < 0 {
			break
		}
		out[best] += bestExt
		remaining -= bestExt
	}
	req.spreadLeftover(out, remaining)
	return out, nil
}

// WeightedFair splits the budget in proportion to the weights (equal
// shares when uniform), ignoring curves, floors, and caps — the
// fairness policy generalized to priced tenants. Whole granules go by
// largest fractional remainder (ties to the lowest index), so uniform
// weights reproduce Fair byte-for-byte; the sub-granule residue goes to
// partition 0 as in Fair.
func WeightedFair(req Request) ([]int64, error) {
	n, err := req.validate()
	if err != nil {
		return nil, err
	}
	if req.Weights == nil {
		return Fair(n, req.Total, req.Granule)
	}
	var sumW float64
	for i := 0; i < n; i++ {
		sumW += req.weight(i)
	}
	if sumW <= 0 {
		return Fair(n, req.Total, req.Granule)
	}
	granules := req.Total / req.Granule
	out := make([]int64, n)
	type frac struct {
		i int
		f float64
	}
	rem := make([]frac, n)
	var assigned int64
	for i := 0; i < n; i++ {
		exact := float64(granules) * req.weight(i) / sumW
		whole := int64(math.Floor(exact))
		out[i] = whole * req.Granule
		assigned += whole
		rem[i] = frac{i, exact - float64(whole)}
	}
	// Largest remainder first; ties break to the lowest index so the
	// uniform case reproduces Fair's "first total%n partitions get one
	// extra" rule exactly.
	for g := granules - assigned; g > 0; g-- {
		best := -1
		for j := range rem {
			if best < 0 || rem[j].f > rem[best].f {
				best = j
			}
		}
		out[rem[best].i] += req.Granule
		rem[best].f = -1
	}
	out[0] += req.Total - granules*req.Granule
	return out, nil
}

// WeightedOptimalDP computes the exact Σ wᵢ·missesᵢ-minimizing
// allocation under the full Request by dynamic programming over the
// granule grid, restricting each partition's granule count to its
// [floor, cap] band. Ground truth for WeightedHillClimb in tests. Fails
// with ErrBadInput when granule rounding makes the floors infeasible.
func WeightedOptimalDP(req Request) ([]int64, error) {
	n, err := req.validate()
	if err != nil {
		return nil, err
	}
	b := int(req.Total / req.Granule)
	lo := make([]int, n)
	hi := make([]int, n)
	for i := 0; i < n; i++ {
		lo[i] = int((req.minOf(i) + req.Granule - 1) / req.Granule)
		hi[i] = int(req.maxOf(i) / req.Granule)
	}
	const inf = 1e300
	prev := make([]float64, b+1)
	cur := make([]float64, b+1)
	choice := make([][]int, n)
	for i := range choice {
		choice[i] = make([]int, b+1)
	}
	// Exact-allocation semantics: dp[i][j] = min cost giving the first i
	// partitions exactly j granules. Zero partitions can consume only
	// zero granules; this forces the backtracked allocation to spend the
	// whole budget (free capacity must be assigned somewhere).
	prev[0] = 0
	for j := 1; j <= b; j++ {
		prev[j] = inf
	}
	for i := 0; i < n; i++ {
		w := req.weight(i)
		for j := 0; j <= b; j++ {
			cur[j] = inf
			kHi := min(j, hi[i])
			for k := lo[i]; k <= kHi; k++ {
				if prev[j-k] >= inf {
					continue
				}
				cost := prev[j-k] + w*req.Curves[i].Eval(float64(int64(k)*req.Granule))
				if cost < cur[j] {
					cur[j] = cost
					choice[i][j] = k
				}
			}
		}
		prev, cur = cur, prev
	}
	if prev[b] >= inf {
		return nil, fmt.Errorf("%w: floors/caps leave no way to spend %d granules", ErrBadInput, b)
	}
	out := make([]int64, n)
	j := b
	for i := n - 1; i >= 0; i-- {
		k := choice[i][j]
		out[i] = int64(k) * req.Granule
		j -= k
	}
	req.spreadLeftover(out, req.Total-int64(b)*req.Granule)
	return out, nil
}
