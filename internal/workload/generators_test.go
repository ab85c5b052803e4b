package workload

import (
	"math"
	"strings"
	"testing"

	"talus/internal/hash"
)

func TestStridedCycle(t *testing.T) {
	cases := []struct {
		lines, stride, footprint int64
	}{
		{16, 1, 16},
		{16, 4, 4},     // gcd 4 → quarter of the space
		{16, 3, 16},    // coprime → full cycle
		{16, 0, 1},     // degenerate: a single line
		{16, -3, 16},   // negative stride normalizes
		{16, 20, 4},    // stride ≡ 4 (mod 16)
		{1000, 6, 500}, // gcd 2
	}
	for _, c := range cases {
		s := &Strided{Lines: c.lines, Stride: c.stride}
		if got := s.Footprint(); got != c.footprint {
			t.Fatalf("Strided{%d,%d}.Footprint() = %d, want %d", c.lines, c.stride, got, c.footprint)
		}
		// One full cycle visits exactly Footprint distinct addresses, each
		// once, all in range, and then repeats from the start.
		rng := hash.NewSplitMix64(1)
		seen := map[uint64]bool{}
		fp := c.footprint
		var first uint64
		for i := int64(0); i < fp; i++ {
			a := s.Next(rng)
			if i == 0 {
				first = a
			}
			if a >= uint64(c.lines) {
				t.Fatalf("Strided{%d,%d} address %d out of range", c.lines, c.stride, a)
			}
			if seen[a] {
				t.Fatalf("Strided{%d,%d} repeated %d before completing its cycle", c.lines, c.stride, a)
			}
			seen[a] = true
		}
		if a := s.Next(rng); a != first {
			t.Fatalf("Strided{%d,%d} cycle restarted at %d, want %d", c.lines, c.stride, a, first)
		}
	}
}

func TestPointerChaseSingleCycle(t *testing.T) {
	const lines = 257 // prime, and not a power of two
	p := NewPointerChase(lines, 42)
	rng := hash.NewSplitMix64(1)
	if p.Footprint() != lines {
		t.Fatalf("footprint %d, want %d", p.Footprint(), lines)
	}
	// One lap visits every line exactly once (the ring is a single
	// cycle), and the next lap repeats the same sequence.
	var lap1 [lines]uint64
	seen := map[uint64]bool{}
	for i := range lap1 {
		a := p.Next(rng)
		if a >= lines {
			t.Fatalf("address %d out of range", a)
		}
		if seen[a] {
			t.Fatalf("address %d repeated within a lap: ring is not a single cycle", a)
		}
		seen[a] = true
		lap1[i] = a
	}
	for i := range lap1 {
		if a := p.Next(rng); a != lap1[i] {
			t.Fatalf("lap 2 access %d = %d, want %d", i, a, lap1[i])
		}
	}
	// A fresh chase of the same seed replays the same lap.
	c := NewPointerChase(lines, 42)
	for i := range lap1 {
		if a := c.Next(rng); a != lap1[i] {
			t.Fatalf("fresh chase access %d = %d, want %d", i, a, lap1[i])
		}
	}
	// Different seeds give different rings.
	q := NewPointerChase(lines, 43)
	diff := false
	for i := 0; i < lines; i++ {
		if p.Next(rng) != q.Next(rng) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 produced identical rings")
	}
}

func TestDiurnalRotates(t *testing.T) {
	const lines = 1 << 12
	d, err := NewDiurnal(lines, 0.9, 1000, lines/4)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewSplitMix64(7)
	// Track the most popular address per phase; the rotation must move it.
	phaseTop := func() uint64 {
		counts := map[uint64]int{}
		for i := 0; i < 1000; i++ {
			a := d.Next(rng)
			if a >= lines {
				t.Fatalf("address %d out of range", a)
			}
			counts[a]++
		}
		var top uint64
		best := -1
		for a, c := range counts {
			if c > best {
				top, best = a, c
			}
		}
		return top
	}
	t1 := phaseTop()
	t2 := phaseTop()
	if t1 == t2 {
		t.Fatalf("hotset did not rotate: top address %d in both phases", t1)
	}
	if d.Footprint() != lines {
		t.Fatalf("footprint %d, want %d", d.Footprint(), lines)
	}
	if _, err := NewDiurnal(0, 0.9, 100, 1); err == nil {
		t.Fatal("lines 0 accepted")
	}
	if _, err := NewDiurnal(16, 0.9, 0, 1); err == nil {
		t.Fatal("period 0 accepted")
	}
}

func TestCliffSeekerPlacesKnee(t *testing.T) {
	const target = int64(4096)
	c, err := NewCliffSeeker(target)
	if err != nil {
		t.Fatal(err)
	}
	if c.Target != target {
		t.Fatalf("target %d, want %d", c.Target, target)
	}
	wantKnee := int64(KneeFactor * float64(target))
	if c.Knee != wantKnee {
		t.Fatalf("knee %d, want %d", c.Knee, wantKnee)
	}
	// The knee is beyond the attacked size but the total footprint is of
	// the same scale: footprint = scan (knee − hot) + zipf hot = knee.
	if c.Footprint() != c.Knee {
		t.Fatalf("footprint %d, want knee %d", c.Footprint(), c.Knee)
	}
	// The mix really draws from both subspaces (Mix tags component
	// indexes in bit 40).
	rng := hash.NewSplitMix64(3)
	var scanAcc, zipfAcc int
	for i := 0; i < 4096; i++ {
		if c.Next(rng)>>40 == 0 {
			scanAcc++
		} else {
			zipfAcc++
		}
	}
	if scanAcc == 0 || zipfAcc == 0 {
		t.Fatalf("mix imbalance: %d scan vs %d zipf accesses", scanAcc, zipfAcc)
	}
	if ratio := float64(scanAcc) / 4096; math.Abs(ratio-cliffScanWeight) > 0.05 {
		t.Fatalf("scan fraction %.3f far from %.2f", ratio, cliffScanWeight)
	}
	if _, err := NewCliffSeeker(8); err == nil {
		t.Fatal("target 8 accepted")
	}
}

func TestGeneratorRegistry(t *testing.T) {
	// Generators resolve by bare name without polluting the SPEC suite
	// enumeration.
	for _, g := range generators {
		name := g.name
		spec, err := Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		if spec.APKI <= 0 || spec.CPIBase <= 0 || spec.MLP <= 0 {
			t.Fatalf("%q core-model params not set: %+v", name, spec)
		}
		if err := Validate(spec.Build()); err != nil {
			t.Fatalf("%q pattern invalid: %v", name, err)
		}
		for _, n := range Names() {
			if n == name {
				t.Fatalf("generator %q leaked into the SPEC suite Names()", name)
			}
		}
	}
}

func TestGenSource(t *testing.T) {
	cases := []struct {
		name      string
		footprint int64
	}{
		{"gen:scan,lines=4096", 4096},
		{"gen:scan,mb=1", mb(1)},
		{"gen:rand,lines=512", 512},
		{"gen:zipf,lines=8192,s=1.1", 8192},
		{"gen:strided,lines=4096,stride=4", 1024},
		{"gen:pointerchase,lines=1024,seed=9", 1024},
		{"gen:diurnal,lines=4096,period=1000,shift=64", 4096},
		{"gen:cliffseeker,lines=4096", int64(KneeFactor * 4096)},
	}
	for _, c := range cases {
		spec, err := Resolve(c.name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", c.name, err)
		}
		if got := spec.Build().Footprint(); got != c.footprint {
			t.Fatalf("%q footprint %d, want %d", c.name, got, c.footprint)
		}
		// Built patterns are independent: advancing one must not advance
		// a second build.
		p1, p2 := spec.Build(), spec.Build()
		rng := hash.NewSplitMix64(5)
		a1 := p1.Next(rng)
		rng = hash.NewSplitMix64(5)
		b1 := p2.Next(rng)
		if a1 != b1 {
			t.Fatalf("%q: two Build()s diverge from the same RNG: %d vs %d", c.name, a1, b1)
		}
	}
	for _, bad := range []string{
		"gen:nosuch",
		"gen:scan,lines=0",
		"gen:scan,lines=x",
		"gen:zipf,s=x",
		"gen:strided,stride",
		"gen:cliffseeker,lines=4",
		"gen:diurnal,period=0",
	} {
		if _, err := Resolve(bad); err == nil {
			t.Fatalf("Resolve(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "gen:") {
			t.Fatalf("Resolve(%q) error %q does not name the source", bad, err)
		}
	}
}

// TestZipfGoodnessOfFit pins the sampler's distribution against the
// analytic zipf pmf with a chi-square test: empirical frequencies of
// Next over the first exact ranks (and the bucketed tail, aggregated)
// must match Σ 1/k^s within statistical noise. Lines is a power of two
// so the rank→address scatter (×0x9E3779B9 mod Lines, an odd constant)
// is a bijection and rank frequencies are recoverable per address.
func TestZipfGoodnessOfFit(t *testing.T) {
	const (
		lines = int64(1 << 16)
		s     = 0.9
		n     = 1 << 21
	)
	z := NewZipf(lines, s)
	rng := hash.NewSplitMix64(11)
	counts := make(map[uint64]int64, 4096)
	for i := 0; i < n; i++ {
		counts[z.Next(rng)]++
	}

	// Analytic pmf: exact 1/k^s over every rank, normalized. Addresses
	// recover ranks through the same scatter Next applies.
	norm := 0.0
	for k := int64(1); k <= lines; k++ {
		norm += math.Pow(float64(k), -s)
	}
	addrOf := func(rank int64) uint64 {
		return uint64(rank-1) * 0x9E3779B9 % uint64(lines)
	}

	// Bins: first 64 ranks individually, then geometric rank bands. The
	// sampler is exact below zipfExact and bucket-uniform above, so the
	// geometric bands (aligned with powers of two) are fair to both.
	type bin struct {
		lo, hi int64 // rank range [lo, hi]
	}
	var bins []bin
	for k := int64(1); k <= 64; k++ {
		bins = append(bins, bin{k, k})
	}
	for lo := int64(65); lo <= lines; {
		hi := lo*2 - 1
		if hi > lines {
			hi = lines
		}
		bins = append(bins, bin{lo, hi})
		lo = hi + 1
	}

	chi2 := 0.0
	dof := 0
	for _, b := range bins {
		var expP float64
		var obs int64
		for k := b.lo; k <= b.hi; k++ {
			expP += math.Pow(float64(k), -s) / norm
			obs += counts[addrOf(k)]
		}
		exp := expP * n
		if exp < 16 {
			continue // too thin for the chi-square approximation
		}
		d := float64(obs) - exp
		chi2 += d * d / exp
		dof++
	}
	if dof < 32 {
		t.Fatalf("only %d usable bins; test is vacuous", dof)
	}
	// χ² concentrates at dof ± O(√dof); allow a generous 5σ so the test
	// only fires on real sampler regressions, not seed luck.
	limit := float64(dof) + 5*math.Sqrt(2*float64(dof))
	if chi2 > limit {
		t.Fatalf("chi-square %.1f over %d bins exceeds %.1f: Next's distribution drifted from the analytic zipf pmf", chi2, dof, limit)
	}
	t.Logf("chi-square %.1f over %d bins (limit %.1f)", chi2, dof, limit)
}

// FuzzPattern drives random generator specs through the Pattern
// contract: Validate-accepted patterns must Next without panicking,
// stay within a plausible address range, honor Footprint (never more
// distinct addresses than claimed), and build deterministically: two
// builds replay the same stream under the same RNG.
func FuzzPattern(f *testing.F) {
	f.Add(int64(64), int64(3), uint8(0), uint64(1))
	f.Add(int64(1), int64(0), uint8(1), uint64(2))
	f.Add(int64(4096), int64(64), uint8(2), uint64(3))
	f.Add(int64(100), int64(7), uint8(3), uint64(4))
	f.Add(int64(128), int64(16), uint8(4), uint64(5))
	f.Add(int64(16), int64(-5), uint8(5), uint64(6))
	f.Fuzz(func(t *testing.T, lines, param int64, kind uint8, seed uint64) {
		if lines < 1 || lines > 1<<20 {
			t.Skip()
		}
		if kind%6 == 5 && lines < 16 {
			t.Skip()
		}
		build := func() Pattern {
			switch kind % 6 {
			case 0:
				return &Scan{Lines: lines}
			case 1:
				return &Rand{Lines: lines}
			case 2:
				s := 0.1 + float64(param%30)/10 // 0.1..3.0
				if s < 0 {
					s = -s
				}
				return NewZipf(lines, s)
			case 3:
				return &Strided{Lines: lines, Stride: param}
			case 4:
				return NewPointerChase(lines, seed)
			}
			c, err := NewCliffSeeker(lines)
			if err != nil {
				t.Fatalf("NewCliffSeeker(%d): %v", lines, err)
			}
			return c
		}
		p := build()
		if err := Validate(p); err != nil {
			t.Fatalf("Validate rejected a well-formed %T: %v", p, err)
		}
		fp := p.Footprint()
		if fp < 1 {
			t.Fatalf("%T footprint %d < 1", p, fp)
		}
		rng := hash.NewSplitMix64(seed)
		again := build()
		crng := hash.NewSplitMix64(seed)
		distinct := map[uint64]bool{}
		steps := 512
		if int64(steps) > 4*fp {
			steps = int(4 * fp)
		}
		for i := 0; i < steps; i++ {
			a := p.Next(rng)
			distinct[a] = true
			// Builds replay the same stream under the same RNG (all
			// generator state is position, not randomness history).
			if b := again.Next(crng); a != b {
				t.Fatalf("%T second build diverged at access %d: %d vs %d", p, i, a, b)
			}
		}
		if int64(len(distinct)) > fp {
			t.Fatalf("%T touched %d distinct lines, footprint claims %d", p, len(distinct), fp)
		}
	})
}
