// Distance: the normalized L1 gap between two miss curves — the churn
// signal the adaptive runtime reports each epoch. Distance turns "how
// much did the curve move" into one dimensionless number.

package curve

import "math"

// Distance returns the normalized L1 distance between two curves:
//
//	∫ |a(s) − b(s)| ds  /  ∫ max(a(s), b(s)) ds
//
// integrated by the trapezoid rule over the union of the two size grids
// (both curves are evaluated with their usual flat extrapolation, so the
// grids need not match). The result is in [0, 1]: 0 for identical
// curves, approaching 1 as the curves stop overlapping at all. Both the
// integrand and the curves are piecewise-linear, but |a−b| can kink
// between grid points where the curves cross; the trapezoid rule on the
// union grid slightly underestimates the gap there, which is fine for a
// churn signal. Edge cases: two nil/empty (or identically zero) curves
// are distance 0; exactly one nil/empty curve is distance 1 (a partition
// appearing or vanishing is maximal churn).
func Distance(a, b *Curve) float64 {
	aEmpty := a == nil || len(a.pts) == 0
	bEmpty := b == nil || len(b.pts) == 0
	if aEmpty && bEmpty {
		return 0
	}
	if aEmpty || bEmpty {
		// Flat-zero curves are as empty as nil ones.
		full := a
		if aEmpty {
			full = b
		}
		if full.isZero() {
			return 0
		}
		return 1
	}
	sizes := mergeSizes(a.pts, b.pts)
	if len(sizes) == 1 {
		// Degenerate single-point grids: compare heights directly.
		ya, yb := a.Eval(sizes[0]), b.Eval(sizes[0])
		if hi := math.Max(ya, yb); hi > 0 {
			return math.Abs(ya-yb) / hi
		}
		return 0
	}
	var gap, mass float64
	prevS := sizes[0]
	prevGap := math.Abs(a.Eval(prevS) - b.Eval(prevS))
	prevMax := math.Max(a.Eval(prevS), b.Eval(prevS))
	for _, s := range sizes[1:] {
		ya, yb := a.Eval(s), b.Eval(s)
		g := math.Abs(ya - yb)
		m := math.Max(ya, yb)
		ds := s - prevS
		gap += (prevGap + g) / 2 * ds
		mass += (prevMax + m) / 2 * ds
		prevS, prevGap, prevMax = s, g, m
	}
	if mass <= 0 {
		return 0
	}
	d := gap / mass
	if d > 1 {
		return 1
	}
	return d
}

// isZero reports whether every point of the curve has zero MPKI.
func (c *Curve) isZero() bool {
	for _, p := range c.pts {
		if p.MPKI != 0 {
			return false
		}
	}
	return true
}
