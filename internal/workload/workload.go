package workload

import (
	"fmt"
	"math"

	"talus/internal/hash"
)

// Pattern is a source of line addresses within its own private address
// space (patterns composed into one app are offset into disjoint spaces).
type Pattern interface {
	// Next returns the next line address, drawing randomness from rng.
	Next(rng *hash.SplitMix64) uint64
	// Footprint returns the number of distinct lines the pattern touches.
	Footprint() int64
}

// Validate checks that a pattern (recursively, for composites) touches
// at least one line: degenerate footprints otherwise surface only deep
// inside generation — Scan{Lines: 0} loops forever on address 0 and
// Rand{Lines: 0} panics in Uint64n — so composite constructors and
// NewApp reject them up front with a descriptive error.
func Validate(p Pattern) error {
	switch v := p.(type) {
	case *Mix:
		if len(v.comps) == 0 {
			return fmt.Errorf("workload: mix with no components")
		}
		for i, c := range v.comps {
			if err := Validate(c.Pattern); err != nil {
				return fmt.Errorf("mix component %d: %w", i, err)
			}
		}
	case *Phased:
		if len(v.Stages) == 0 {
			return fmt.Errorf("workload: phased pattern with no stages")
		}
		for i, s := range v.Stages {
			if s.Pattern == nil {
				return fmt.Errorf("workload: phased stage %d has no pattern", i)
			}
			if s.Length < 1 {
				return fmt.Errorf("workload: phased stage %d length %d < 1", i, s.Length)
			}
			if err := Validate(s.Pattern); err != nil {
				return fmt.Errorf("phased stage %d: %w", i, err)
			}
		}
	default:
		if f := p.Footprint(); f < 1 {
			return fmt.Errorf("workload: %T footprint %d < 1 line", p, f)
		}
	}
	return nil
}

// --- Primitives --------------------------------------------------------

// Scan cycles sequentially through Lines addresses: the canonical
// cliff-maker. Under LRU it yields 0% hits below its footprint and ~100%
// above.
type Scan struct {
	Lines int64
	pos   int64
}

// Next implements Pattern.
func (s *Scan) Next(_ *hash.SplitMix64) uint64 {
	a := uint64(s.pos)
	s.pos++
	if s.pos >= s.Lines {
		s.pos = 0
	}
	return a
}

// Footprint implements Pattern.
func (s *Scan) Footprint() int64 { return s.Lines }

// Rand draws uniformly from Lines addresses: a smooth working set whose
// LRU miss curve falls roughly linearly until the footprint fits.
type Rand struct {
	Lines int64
}

// Next implements Pattern.
func (r *Rand) Next(rng *hash.SplitMix64) uint64 { return rng.Uint64n(uint64(r.Lines)) }

// Footprint implements Pattern.
func (r *Rand) Footprint() int64 { return r.Lines }

// Zipf draws from Lines addresses with Zipfian popularity (exponent S>1),
// giving a convex miss curve with a long tail — typical of pointer-heavy
// codes. Implemented by inverse-transform sampling over a precomputed
// CDF of rank buckets (exact for ranks below zipfExact, bucketed above).
type Zipf struct {
	Lines int64
	S     float64
	cdf   []float64 // cumulative probability at bucket boundaries
	ends  []int64   // bucket end rank (exclusive)
}

const zipfExact = 1024

// NewZipf builds a Zipfian pattern; s must be > 0 and != 1 is not
// required (the harmonic case is handled numerically).
func NewZipf(lines int64, s float64) *Zipf {
	z := &Zipf{Lines: lines, S: s}
	z.build()
	return z
}

func (z *Zipf) build() {
	// Exact ranks [1, zipfExact), then geometric buckets to Lines.
	var bounds []int64
	for r := int64(1); r < zipfExact && r <= z.Lines; r++ {
		bounds = append(bounds, r)
	}
	for lo := int64(zipfExact); lo <= z.Lines; lo *= 2 {
		hi := lo * 2
		if hi > z.Lines+1 {
			hi = z.Lines + 1
		}
		bounds = append(bounds, hi-1)
		if hi > z.Lines {
			break
		}
	}
	weight := func(lo, hi int64) float64 {
		// Σ 1/k^s for k in [lo, hi] ≈ integral approximation for wide
		// buckets; exact for single ranks.
		if hi == lo {
			return math.Pow(float64(lo), -z.S)
		}
		if z.S == 1 {
			return math.Log(float64(hi)+0.5) - math.Log(float64(lo)-0.5)
		}
		a := math.Pow(float64(lo)-0.5, 1-z.S)
		b := math.Pow(float64(hi)+0.5, 1-z.S)
		return (a - b) / (z.S - 1)
	}
	var cum float64
	prev := int64(0)
	z.cdf = z.cdf[:0]
	z.ends = z.ends[:0]
	for _, b := range bounds {
		cum += weight(prev+1, b)
		z.cdf = append(z.cdf, cum)
		z.ends = append(z.ends, b)
		prev = b
	}
	for i := range z.cdf {
		z.cdf[i] /= cum
	}
}

// Next implements Pattern.
func (z *Zipf) Next(rng *hash.SplitMix64) uint64 {
	u := rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := int64(1)
	if lo > 0 {
		start = z.ends[lo-1] + 1
	}
	end := z.ends[lo]
	rank := start
	if end > start {
		rank += int64(rng.Uint64n(uint64(end - start + 1)))
	}
	// Scatter ranks over the address space deterministically so popular
	// lines are not spatially adjacent.
	return uint64(rank-1) * 0x9E3779B9 % uint64(z.Lines)
}

// Footprint implements Pattern.
func (z *Zipf) Footprint() int64 { return z.Lines }

// RankPMF returns the sampler's effective rank distribution: bucket end
// ranks (inclusive) and each bucket's total probability. Ranks within a
// bucket are drawn uniformly, so rank k in bucket i (ends[i-1] < k ≤
// ends[i]) has probability probs[i]/(ends[i]−ends[i-1]). Exact ranks
// below zipfExact are single-rank buckets. This is the distribution
// Next actually draws from — analytic models (internal/oracle) and
// goodness-of-fit tests should compare against it, not against an
// independently rebuilt pmf that could drift from the sampler.
func (z *Zipf) RankPMF() (ends []int64, probs []float64) {
	ends = append([]int64(nil), z.ends...)
	probs = make([]float64, len(z.cdf))
	prev := 0.0
	for i, c := range z.cdf {
		probs[i] = c - prev
		prev = c
	}
	return ends, probs
}

// Component weights one pattern within a Mix.
type Component struct {
	Pattern Pattern
	Weight  float64
}

// Mix interleaves components, choosing each access's source pattern with
// probability proportional to its weight. Components live in disjoint
// address subspaces (component index in the high bits).
type Mix struct {
	comps []Component
	cum   []float64
}

// NewMix builds a mixture; weights must be positive.
func NewMix(comps ...Component) (*Mix, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("workload: empty mix")
	}
	m := &Mix{comps: comps, cum: make([]float64, len(comps))}
	total := 0.0
	for i, c := range comps {
		if c.Weight <= 0 || c.Pattern == nil {
			return nil, fmt.Errorf("workload: bad component %d", i)
		}
		if err := Validate(c.Pattern); err != nil {
			return nil, fmt.Errorf("workload: component %d: %w", i, err)
		}
		total += c.Weight
		m.cum[i] = total
	}
	for i := range m.cum {
		m.cum[i] /= total
	}
	return m, nil
}

// MustMix is NewMix that panics on error (registry literals).
func MustMix(comps ...Component) *Mix {
	m, err := NewMix(comps...)
	if err != nil {
		panic(err)
	}
	return m
}

// Next implements Pattern.
func (m *Mix) Next(rng *hash.SplitMix64) uint64 {
	u := rng.Float64()
	i := 0
	for i < len(m.cum)-1 && m.cum[i] < u {
		i++
	}
	return m.comps[i].Pattern.Next(rng) | uint64(i)<<40
}

// Footprint implements Pattern.
func (m *Mix) Footprint() int64 {
	var total int64
	for _, c := range m.comps {
		total += c.Pattern.Footprint()
	}
	return total
}

// NewPhased validates stages (at least one, each with a valid pattern
// and positive length) and builds a Phased pattern.
func NewPhased(stages ...Stage) (*Phased, error) {
	p := &Phased{Stages: stages}
	if err := Validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Phased rotates through stages, running each for its length in accesses.
// It exists to exercise (and test) Talus's interval-based reconfiguration
// when Assumption 1's "miss curves change slowly" is stressed.
type Phased struct {
	Stages []Stage
	idx    int
	left   int64
}

// Stage is one phase of a Phased pattern.
type Stage struct {
	Pattern Pattern
	Length  int64 // accesses before moving on
}

// Next implements Pattern.
func (p *Phased) Next(rng *hash.SplitMix64) uint64 {
	if p.left <= 0 {
		p.idx = (p.idx + 1) % len(p.Stages)
		p.left = p.Stages[p.idx].Length
	}
	p.left--
	return p.Stages[p.idx].Pattern.Next(rng) | uint64(p.idx)<<40
}

// Footprint implements Pattern.
func (p *Phased) Footprint() int64 {
	var max int64
	for _, s := range p.Stages {
		if f := s.Pattern.Footprint(); f > max {
			max = f
		}
	}
	return max
}

// --- App: a runnable workload -------------------------------------------

// Spec describes one application clone: its access pattern plus the
// parameters of the analytic core model (internal/sim): APKI converts
// accesses to instructions; CPIBase is the cycles-per-instruction with a
// perfect LLC; MLP is the average miss-level parallelism dividing the
// memory latency penalty.
type Spec struct {
	Name    string
	APKI    float64
	CPIBase float64
	MLP     float64
	Build   func() Pattern
}

// App is an instantiated workload: a pattern plus a deterministic RNG.
type App struct {
	Spec
	pattern Pattern
	rng     *hash.SplitMix64
}

// NewApp instantiates spec with the given seed. It panics with a
// descriptive error when the built pattern has a degenerate (< 1 line)
// footprint — the misuse otherwise surfaces as an address-0 loop or a
// panic deep inside Uint64n (composite constructors return the same
// validation as an error; a bare Scan/Rand literal has no constructor
// to return one from).
func NewApp(spec Spec, seed uint64) *App {
	pattern := spec.Build()
	if err := Validate(pattern); err != nil {
		panic(fmt.Sprintf("workload: app %q: %v", spec.Name, err))
	}
	return &App{
		Spec:    spec,
		pattern: pattern,
		rng:     hash.NewSplitMix64(seed),
	}
}

// Next returns the next line address.
func (a *App) Next() uint64 { return a.pattern.Next(a.rng) }
