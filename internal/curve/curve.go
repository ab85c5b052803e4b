package curve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// LineBytes is the cache line size assumed throughout the simulator,
// matching the paper's 64 B lines (Table I).
const LineBytes = 64

// LinesPerMB is the number of cache lines in one mebibyte.
const LinesPerMB = 1 << 20 / LineBytes // 16384

// MBToLines converts a capacity in MB to cache lines.
func MBToLines(mb float64) float64 { return mb * LinesPerMB }

// LinesToMB converts a capacity in cache lines to MB.
func LinesToMB(lines float64) float64 { return lines / LinesPerMB }

// Point is a single measurement on a miss curve: at Size cache lines, the
// workload incurs MPKI misses per kilo-instruction.
type Point struct {
	Size float64 `json:"size"` // cache size in lines
	MPKI float64 `json:"mpki"` // misses per kilo-instruction at that size
}

// Curve is an immutable miss curve: a piecewise-linear function through a
// set of points sorted by strictly increasing size. Between points the
// curve interpolates linearly; beyond its extremes it extrapolates flat
// (miss rates saturate at both ends). Construct curves with New; the
// zero value is an empty curve that evaluates to 0.
type Curve struct {
	pts []Point
}

// Errors returned by New.
var (
	ErrEmpty      = errors.New("curve: no points")
	ErrUnsorted   = errors.New("curve: sizes must be strictly increasing")
	ErrBadValue   = errors.New("curve: sizes and MPKIs must be finite and non-negative")
	ErrOutOfRange = errors.New("curve: size out of range")
)

// New builds a curve from points, which must have finite, non-negative
// sizes and MPKIs and strictly increasing sizes. The slice is copied.
func New(points []Point) (*Curve, error) {
	if len(points) == 0 {
		return nil, ErrEmpty
	}
	pts := make([]Point, len(points))
	copy(pts, points)
	for i, p := range pts {
		if math.IsNaN(p.Size) || math.IsInf(p.Size, 0) || p.Size < 0 ||
			math.IsNaN(p.MPKI) || math.IsInf(p.MPKI, 0) || p.MPKI < 0 {
			return nil, fmt.Errorf("%w: point %d = (%g, %g)", ErrBadValue, i, p.Size, p.MPKI)
		}
		if i > 0 && p.Size <= pts[i-1].Size {
			return nil, fmt.Errorf("%w: point %d size %g after %g", ErrUnsorted, i, p.Size, pts[i-1].Size)
		}
	}
	return &Curve{pts: pts}, nil
}

// MustNew is New that panics on error, for statically known-good inputs
// (tests, example curves).
func MustNew(points []Point) *Curve {
	c, err := New(points)
	if err != nil {
		panic(err)
	}
	return c
}

// Points returns a copy of the curve's points.
func (c *Curve) Points() []Point {
	if c == nil {
		return nil
	}
	pts := make([]Point, len(c.pts))
	copy(pts, c.pts)
	return pts
}

// NumPoints returns the number of points in the curve.
func (c *Curve) NumPoints() int {
	if c == nil {
		return 0
	}
	return len(c.pts)
}

// PointAt returns the i-th point.
func (c *Curve) PointAt(i int) Point { return c.pts[i] }

// MinSize returns the smallest size with a measurement.
func (c *Curve) MinSize() float64 {
	if c == nil || len(c.pts) == 0 {
		return 0
	}
	return c.pts[0].Size
}

// MaxSize returns the largest size with a measurement.
func (c *Curve) MaxSize() float64 {
	if c == nil || len(c.pts) == 0 {
		return 0
	}
	return c.pts[len(c.pts)-1].Size
}

// Eval returns the MPKI at size s, interpolating linearly between points
// and extrapolating flat beyond the measured range. An empty curve
// evaluates to 0.
func (c *Curve) Eval(s float64) float64 {
	if c == nil || len(c.pts) == 0 {
		return 0
	}
	pts := c.pts
	if s <= pts[0].Size {
		return pts[0].MPKI
	}
	if s >= pts[len(pts)-1].Size {
		return pts[len(pts)-1].MPKI
	}
	// Binary search for the segment containing s.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Size > s })
	lo, hi := pts[i-1], pts[i]
	frac := (s - lo.Size) / (hi.Size - lo.Size)
	return lo.MPKI + frac*(hi.MPKI-lo.MPKI)
}

// Scale applies Theorem 4's sampling transform: pseudo-randomly sampling a
// fraction rho of the access stream yields the miss curve
//
//	m'(s') = ρ · m(s'/ρ)
//
// Every point (x, y) maps to (ρ·x, ρ·y). rho must be in (0, 1]; rho = 1
// returns a copy of the receiver.
func (c *Curve) Scale(rho float64) (*Curve, error) {
	if !(rho > 0 && rho <= 1) {
		return nil, fmt.Errorf("curve: Scale rho %g outside (0,1]", rho)
	}
	pts := make([]Point, len(c.pts))
	for i, p := range c.pts {
		pts[i] = Point{Size: p.Size * rho, MPKI: p.MPKI * rho}
	}
	return New(pts)
}

// Add returns the pointwise sum of two curves, evaluated at the union of
// their size grids. This is how the aggregate miss rate of two shadow
// partitions (Eq. 2) composes.
func (c *Curve) Add(other *Curve) (*Curve, error) {
	if c == nil || other == nil || len(c.pts) == 0 || len(other.pts) == 0 {
		return nil, ErrEmpty
	}
	sizes := mergeSizes(c.pts, other.pts)
	pts := make([]Point, len(sizes))
	for i, s := range sizes {
		pts[i] = Point{Size: s, MPKI: c.Eval(s) + other.Eval(s)}
	}
	return New(pts)
}

// ScaleMPKI returns a copy of the curve with every MPKI multiplied by k
// (k ≥ 0). Used to re-weight per-partition curves by access share.
func (c *Curve) ScaleMPKI(k float64) (*Curve, error) {
	if k < 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return nil, fmt.Errorf("curve: ScaleMPKI factor %g invalid", k)
	}
	pts := make([]Point, len(c.pts))
	for i, p := range c.pts {
		pts[i] = Point{Size: p.Size, MPKI: p.MPKI * k}
	}
	return New(pts)
}

// IsNonIncreasing reports whether MPKI never increases with size. LRU
// curves always satisfy this (the stack property); high-performance
// policies may not.
func (c *Curve) IsNonIncreasing() bool {
	for i := 1; i < len(c.pts); i++ {
		if c.pts[i].MPKI > c.pts[i-1].MPKI+1e-12 {
			return false
		}
	}
	return true
}

// IsConvex reports whether the curve is convex: its slope is non-decreasing
// with size (for miss curves, slopes are ≤ 0 and shrink in magnitude).
// Convexity is exactly the absence of performance cliffs (paper §II-D).
// tol absorbs floating-point noise; tol = 0 demands exact convexity.
func (c *Curve) IsConvex(tol float64) bool {
	for i := 2; i < len(c.pts); i++ {
		a, b, d := c.pts[i-2], c.pts[i-1], c.pts[i]
		// b must lie on or below segment a—d: cross(ab, ad) tells the turn.
		cross := (b.Size-a.Size)*(d.MPKI-a.MPKI) - (b.MPKI-a.MPKI)*(d.Size-a.Size)
		// For a lower-convex sequence the middle point is below the chord,
		// i.e. cross ≥ 0 (counter-clockwise or collinear).
		if cross < -tol*math.Max(1, math.Abs(a.MPKI)+math.Abs(d.MPKI))*(d.Size-a.Size) {
			return false
		}
	}
	return true
}

// String renders the curve compactly for debugging: "(size→mpki, ...)"
// with sizes in MB.
func (c *Curve) String() string {
	if c == nil || len(c.pts) == 0 {
		return "curve()"
	}
	var b strings.Builder
	b.WriteString("curve(")
	for i, p := range c.pts {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.3gMB→%.3g", LinesToMB(p.Size), p.MPKI)
	}
	b.WriteString(")")
	return b.String()
}

// mergeSizes returns the sorted union of the size grids of two point sets.
func mergeSizes(a, b []Point) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Size < b[j].Size):
			out = append(out, a[i].Size)
			i++
		case i >= len(a) || b[j].Size < a[i].Size:
			out = append(out, b[j].Size)
			j++
		default: // equal
			out = append(out, a[i].Size)
			i++
			j++
		}
	}
	return out
}
