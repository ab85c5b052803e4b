// Adversarial and stream-shaped generators beyond the zipf/rand/scan
// primitives: strided prefetch-friendly streams, dependent pointer
// chases, phase-shifting diurnal popularity, and a cliff-seeking
// workload that deliberately parks its LRU cliff just beyond a target
// cache size. All four are exact-analyzable (internal/oracle computes
// or simulates their ground-truth miss curves), which is what makes
// them useful: they turn the monitor→hull→Talus stack's output into
// something an independent reference can check.

package workload

import (
	"fmt"
	"strconv"
	"strings"

	"talus/internal/curve"
	"talus/internal/hash"
)

// Strided cycles through Lines addresses in steps of Stride: the shape
// of a hardware-prefetch-friendly stream (unit or small stride). Its
// footprint is Lines/gcd(Lines, Stride) distinct lines and, like Scan,
// its LRU miss curve is a step: all-miss below the footprint, all-hit
// at and above it. Stride 0 degenerates to a single line; negative
// strides walk backwards.
type Strided struct {
	Lines  int64
	Stride int64
	pos    int64
}

// step returns the stride normalized into [0, Lines).
func (s *Strided) step() int64 {
	if s.Lines < 1 {
		return 0
	}
	st := s.Stride % s.Lines
	if st < 0 {
		st += s.Lines
	}
	return st
}

// Next implements Pattern.
func (s *Strided) Next(_ *hash.SplitMix64) uint64 {
	a := uint64(s.pos)
	s.pos = (s.pos + s.step()) % s.Lines
	return a
}

// Footprint implements Pattern: the length of the cycle the stride
// traces, Lines/gcd(Lines, Stride).
func (s *Strided) Footprint() int64 {
	if s.Lines < 1 {
		return s.Lines
	}
	st := s.step()
	if st == 0 {
		return 1
	}
	return s.Lines / gcd(s.Lines, st)
}

// gcd returns the greatest common divisor of two positive int64s.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PointerChase follows a fixed random ring over Lines addresses: each
// access's address is determined by the previous one (next = ring[cur]),
// the dependent-chain worst case for spatial locality and prefetching
// (MLP ≈ 1). The ring is a single cycle, so like Scan the pattern
// touches all Lines lines once per lap and its LRU miss curve is a step
// at Lines — but with no spatial order for a stream prefetcher to
// exploit. The ring is built deterministically from Seed on first use.
type PointerChase struct {
	Lines int64
	Seed  uint64
	ring  []uint64
	cur   uint64
}

// NewPointerChase builds a pointer chase over a lines-long ring seeded
// by seed.
func NewPointerChase(lines int64, seed uint64) *PointerChase {
	return &PointerChase{Lines: lines, Seed: seed}
}

// build materializes the ring: a uniformly random single cycle over
// [0, Lines), derived from a random visiting order (ring[order[i]] =
// order[i+1 mod n] is a single n-cycle for any permutation "order").
func (p *PointerChase) build() {
	n := int(p.Lines)
	rng := hash.NewSplitMix64(p.Seed ^ 0xC4A5E)
	order := rng.Perm(n)
	p.ring = make([]uint64, n)
	for i, o := range order {
		p.ring[o] = uint64(order[(i+1)%n])
	}
	p.cur = uint64(order[0])
}

// Next implements Pattern.
func (p *PointerChase) Next(_ *hash.SplitMix64) uint64 {
	if p.ring == nil {
		p.build()
	}
	a := p.cur
	p.cur = p.ring[a]
	return a
}

// Footprint implements Pattern.
func (p *PointerChase) Footprint() int64 { return p.Lines }

// Diurnal is a phase-shifting zipf hotset: zipf-distributed popularity
// over Lines addresses whose hot ranks rotate by Shift lines every
// Period accesses — the access-count analogue of a wall-clock diurnal
// cycle (the morning's hot keys are not the evening's). Each phase
// looks like a stationary zipf to the monitor; across phases the hotset
// walks the whole space, stressing Assumption 1 ("miss curves change
// slowly") the same way Phased does, but gradually instead of abruptly.
type Diurnal struct {
	Lines  int64
	S      float64 // zipf exponent
	Period int64   // accesses per phase
	Shift  int64   // lines the hotset rotates per phase
	z      *Zipf
	offset uint64
	left   int64
}

// NewDiurnal validates the shape (lines ≥ 1, period ≥ 1) and builds a
// rotating-hotset pattern.
func NewDiurnal(lines int64, s float64, period, shift int64) (*Diurnal, error) {
	if lines < 1 {
		return nil, fmt.Errorf("workload: diurnal lines %d < 1", lines)
	}
	if period < 1 {
		return nil, fmt.Errorf("workload: diurnal period %d < 1", period)
	}
	return &Diurnal{Lines: lines, S: s, Period: period, Shift: shift}, nil
}

// Next implements Pattern.
func (d *Diurnal) Next(rng *hash.SplitMix64) uint64 {
	if d.z == nil {
		d.z = NewZipf(d.Lines, d.S)
	}
	if d.left <= 0 {
		shift := d.Shift % d.Lines
		if shift < 0 {
			shift += d.Lines
		}
		d.offset = (d.offset + uint64(shift)) % uint64(d.Lines)
		d.left = d.Period
		if d.left < 1 {
			d.left = 1
		}
	}
	d.left--
	return (d.z.Next(rng) + d.offset) % uint64(d.Lines)
}

// Footprint implements Pattern: the rotation eventually drags the
// hotset across the entire space.
func (d *Diurnal) Footprint() int64 { return d.Lines }

// CliffSeeker hunts the configuration where convexification matters
// most: a scan/zipf mix whose aggregate LRU cliff is placed just beyond
// a target cache size. Below the knee the scan component (weight
// cliffScanWeight) misses on every access, so plain LRU at the target
// size is stuck near the plateau; Talus interpolates the hull between
// the small zipf hotset and the knee and recovers most of the cliff.
// The constructor does the adversarial tuning: between two reuses of a
// scan line, the zipf component interleaves ≈ its whole hotset, so a
// scan footprint F produces its cliff near F + hot lines; solving for
// the knee at KneeFactor × target gives F = knee − hot.
type CliffSeeker struct {
	Target int64 // the cache size under attack, in lines
	Knee   int64 // where the constructor placed the LRU cliff
	mix    *Mix
}

// KneeFactor places the cliff 25% beyond the attacked size: far enough
// that the target allocation cannot reach it, close enough that the
// hull interpolation recovers most of the scan's hits.
const KneeFactor = 1.25

// Mixture shape: the scan dominates so the cliff is tall; the zipf
// hotset supplies the convex low region the hull's α anchor needs.
const (
	cliffScanWeight = 0.8
	cliffZipfWeight = 1 - cliffScanWeight
	cliffZipfS      = 0.9
)

// NewCliffSeeker builds a cliff-seeking mix attacking a cache of
// targetLines lines (at least 16, so the derived hotset and scan
// footprints stay non-degenerate).
func NewCliffSeeker(targetLines int64) (*CliffSeeker, error) {
	if targetLines < 16 {
		return nil, fmt.Errorf("workload: cliffseeker target %d < 16 lines", targetLines)
	}
	knee := int64(KneeFactor * float64(targetLines))
	hot := targetLines / 8
	scan := knee - hot
	mix, err := NewMix(
		Component{&Scan{Lines: scan}, cliffScanWeight},
		Component{NewZipf(hot, cliffZipfS), cliffZipfWeight},
	)
	if err != nil {
		return nil, err
	}
	return &CliffSeeker{Target: targetLines, Knee: knee, mix: mix}, nil
}

// Next implements Pattern.
func (c *CliffSeeker) Next(rng *hash.SplitMix64) uint64 { return c.mix.Next(rng) }

// Footprint implements Pattern.
func (c *CliffSeeker) Footprint() int64 { return c.mix.Footprint() }

// --- Registry wiring ----------------------------------------------------

// generators are the named synthetic generators, each defined once as
// the core-model parameters plus the gen: parameters its name stands
// for: Lookup resolves "strided" as "gen:strided,mb=32,stride=4", and
// gen: spellings of the same generator take its core model. They are
// kept apart from the SPEC CPU2006 clone list so Names stays the
// paper's 29 apps. Sizes are against talus-sim's default 8 MB LLC.
var generators = []struct {
	name               string
	apki, cpiBase, mlp float64
	args               string
}{
	// Stride-4 stream over 32 MB: footprint 8 MB, step cliff there.
	{"strided", 18, 0.5, 3.5, "mb=32,stride=4"},
	// Dependent chain over a 2 MB ring: step cliff at 2 MB, MLP 1.
	{"pointerchase", 15, 0.8, 1.0, "mb=2"},
	// 8 MB zipf hotset rotating by 1/16 of the space every 256K
	// accesses.
	{"diurnal", 20, 0.6, 1.6, "mb=8"},
	// Attacks an 8 MB LLC (talus-sim's default -mb 8): knee at 10 MB.
	{"cliffseeker", 25, 0.55, 2.0, "mb=8"},
}

// genSpec resolves "gen:<name>[,k=v,...]" workload names: the
// parameterized counterpart of the fixed generator specs, e.g.
//
//	gen:cliffseeker,mb=4
//	gen:strided,mb=16,stride=8
//	gen:pointerchase,lines=65536,seed=7
//	gen:diurnal,mb=8,s=0.9,period=262144,shift=8192
//	gen:scan,mb=32    gen:rand,lines=4096    gen:zipf,mb=8,s=1.1
//
// Sizes take either lines=<n> or mb=<f> (mb wins when both are given).
func genSpec(arg string) (Spec, error) {
	parts := strings.Split(arg, ",")
	name := strings.TrimSpace(parts[0])
	params := map[string]string{}
	for _, kv := range parts[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("workload: gen:%s: parameter %q is not k=v", arg, kv)
		}
		params[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	p := genParams{params: params}
	lines := p.lines("lines", "mb", mb(8))
	var build func() Pattern
	switch name {
	case "scan":
		build = func() Pattern { return &Scan{Lines: lines} }
	case "rand":
		build = func() Pattern { return &Rand{Lines: lines} }
	case "zipf":
		s := p.float("s", 0.9)
		build = func() Pattern { return NewZipf(lines, s) }
	case "strided":
		stride := p.int("stride", 4)
		build = func() Pattern { return &Strided{Lines: lines, Stride: stride} }
	case "pointerchase":
		seed := uint64(p.int("seed", 0x9E3779B9))
		build = func() Pattern { return NewPointerChase(lines, seed) }
	// diurnal and cliffseeker construct once here to report a bad
	// shape; their builders repeat the same, now valid, call.
	case "diurnal":
		s := p.float("s", 0.9)
		period := p.int("period", 1<<18)
		shift := p.int("shift", lines/16)
		if _, err := NewDiurnal(lines, s, period, shift); err != nil {
			return Spec{}, fmt.Errorf("workload: gen:%s: %w", arg, err)
		}
		build = func() Pattern { d, _ := NewDiurnal(lines, s, period, shift); return d }
	case "cliffseeker":
		if _, err := NewCliffSeeker(lines); err != nil {
			return Spec{}, fmt.Errorf("workload: gen:%s: %w", arg, err)
		}
		build = func() Pattern { c, _ := NewCliffSeeker(lines); return c }
	default:
		return Spec{}, fmt.Errorf("workload: gen:%s: unknown generator %q (valid: scan, rand, zipf, strided, pointerchase, diurnal, cliffseeker)", arg, name)
	}
	if p.err != nil {
		return Spec{}, fmt.Errorf("workload: gen:%s: %w", arg, p.err)
	}
	// Core-model parameters: the named generator's values when one of
	// the same name exists, else a moderate default.
	spec := Spec{Name: "gen:" + arg, APKI: 20, CPIBase: 0.5, MLP: 2.0}
	for _, g := range generators {
		if g.name == name {
			spec.APKI, spec.CPIBase, spec.MLP = g.apki, g.cpiBase, g.mlp
		}
	}
	spec.Build = build
	pattern := spec.Build()
	if err := Validate(pattern); err != nil {
		return Spec{}, fmt.Errorf("workload: gen:%s: %w", arg, err)
	}
	return spec, nil
}

// genParams is a small typed accessor over gen: key=value parameters,
// accumulating the first parse error.
type genParams struct {
	params map[string]string
	err    error
}

func (p *genParams) int(key string, def int64) int64 {
	v, ok := p.params[key]
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 0, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q: %v", key, v, err)
	}
	return n
}

func (p *genParams) float(key string, def float64) float64 {
	v, ok := p.params[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("parameter %s=%q: %v", key, v, err)
	}
	return f
}

// lines resolves a size given as lines=<n> or mb=<f> (mb wins), with a
// default in lines.
func (p *genParams) lines(linesKey, mbKey string, def int64) int64 {
	out := p.int(linesKey, def)
	if v, ok := p.params[mbKey]; ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			if p.err == nil {
				p.err = fmt.Errorf("parameter %s=%q: %v", mbKey, v, err)
			}
			return out
		}
		out = int64(f * curve.LinesPerMB)
	}
	return out
}
