// Request: the objective-aware allocation seam, and the one
// implementation of each algorithm. NewRequest asks the plain question,
// "minimize total misses over these curves": the weight factor is an
// exact ×1.0. Request generalizes it with per-partition weights, which
// price one partition's miss reduction above another's (QoS).

package alloc

import (
	"fmt"
	"math"

	"talus/internal/curve"
)

// Request carries one allocation problem: divide Total lines among
// len(Curves) partitions in multiples of Granule, minimizing the
// weighted objective.
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
}

// NewRequest builds the plain (uniform) request from the
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

// validate checks the curves, budget, granule and weights, and returns
// the partition count.
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
	return n, nil
}

// spreadLeftover assigns the unallocated remainder: whole granules
// round-robin over the partitions, then the sub-granule residue to
// out[0].
func (r *Request) spreadLeftover(out []int64, remaining int64) {
	for i := 0; remaining >= r.Granule; i = (i + 1) % len(out) {
		out[i] += r.Granule
		remaining -= r.Granule
	}
	out[0] += remaining
}

// WeightedHillClimb is the paper's "trivial linear-time for-loop" under
// the full Request: it repeatedly gives one granule to the partition
// whose weighted miss reduction is largest. On convex curves this
// greedy rule is optimal for the objective Σ wᵢ·missesᵢ (each
// partition's weighted marginal utility is non-increasing, so the
// globally best granule is always a locally best one — verified against
// WeightedOptimalDP by the property tests); on cliffs it is
// demonstrably poor, seeing zero marginal utility across a plateau and
// never crossing it.
func WeightedHillClimb(req Request) ([]int64, error) {
	n, err := req.validate()
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	remaining := req.Total
	for remaining >= req.Granule {
		best := -1
		var bestGain float64
		for i, c := range req.Curves {
			x := float64(out[i])
			gain := (c.Eval(x) - c.Eval(x+float64(req.Granule))) * req.weight(i)
			if gain > bestGain {
				bestGain = gain
				best = i
			}
		}
		if best < 0 {
			break // no weighted utility anywhere
		}
		out[best] += req.Granule
		remaining -= req.Granule
	}
	req.spreadLeftover(out, remaining)
	return out, nil
}

// WeightedLookahead is UCP Lookahead under the full Request: every
// partition proposes the extension maximizing its weighted marginal
// utility per granule; the best proposal wins its whole extension. This
// leaps across plateaus to reach cliffs — at quadratic cost, and with
// the all-or-nothing allocations that hurt fairness (§VII-D).
func WeightedLookahead(req Request) ([]int64, error) {
	n, err := req.validate()
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	remaining := req.Total
	for remaining >= req.Granule {
		best := -1
		var bestRate float64
		var bestExt int64
		for i, c := range req.Curves {
			x := float64(out[i])
			base := c.Eval(x)
			w := req.weight(i)
			for ext := req.Granule; ext <= remaining; ext += req.Granule {
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

// WeightedFair is Fair over a Request: equal shares, whatever the
// curves and the weights say. The fairness baseline prices no tenant
// above another, so weights do not move it.
func WeightedFair(req Request) ([]int64, error) {
	n, err := req.validate()
	if err != nil {
		return nil, err
	}
	return Fair(n, req.Total, req.Granule)
}

// WeightedOptimalDP computes the exact Σ wᵢ·missesᵢ-minimizing
// allocation under the full Request by dynamic programming over the
// granule grid. Ground truth for WeightedHillClimb in tests.
func WeightedOptimalDP(req Request) ([]int64, error) {
	n, err := req.validate()
	if err != nil {
		return nil, err
	}
	b := int(req.Total / req.Granule)
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
			for k := 0; k <= j; k++ {
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
