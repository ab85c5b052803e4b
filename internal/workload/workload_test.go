package workload

import (
	"math"
	"strings"
	"testing"

	"talus/internal/curve"
	"talus/internal/hash"
)

func TestScanCycles(t *testing.T) {
	s := &Scan{Lines: 4}
	rng := hash.NewSplitMix64(1)
	want := []uint64{0, 1, 2, 3, 0, 1, 2, 3}
	for i, w := range want {
		if got := s.Next(rng); got != w {
			t.Fatalf("scan[%d] = %d, want %d", i, got, w)
		}
	}
	if s.Footprint() != 4 {
		t.Fatal("footprint")
	}
	// Clone starts fresh.
	c := s.Clone().(*Scan)
	if got := c.Next(rng); got != 0 {
		t.Fatalf("clone should restart at 0, got %d", got)
	}
}

func TestRandUniform(t *testing.T) {
	r := &Rand{Lines: 16}
	rng := hash.NewSplitMix64(2)
	counts := make([]int, 16)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		a := r.Next(rng)
		if a >= 16 {
			t.Fatalf("address %d out of range", a)
		}
		counts[a]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/16) > n/16*0.15 {
			t.Fatalf("address %d count %d far from uniform", i, c)
		}
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	z := NewZipf(1<<16, 0.9)
	rng := hash.NewSplitMix64(3)
	counts := map[uint64]int{}
	const n = 1 << 18
	for i := 0; i < n; i++ {
		a := z.Next(rng)
		if a >= 1<<16 {
			t.Fatalf("address %d out of range", a)
		}
		counts[a]++
	}
	// Zipf must be heavily skewed: the single hottest line should absorb
	// far more than uniform share (n/65536 = 4).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Fatalf("hottest line count %d; distribution not skewed", max)
	}
	// And the tail must still be broad.
	if len(counts) < 1000 {
		t.Fatalf("only %d distinct lines touched; tail too thin", len(counts))
	}
}

func TestMixWeights(t *testing.T) {
	m := MustMix(
		Component{Pattern: &Scan{Lines: 100}, Weight: 1},
		Component{Pattern: &Rand{Lines: 100}, Weight: 3},
	)
	rng := hash.NewSplitMix64(4)
	const n = 1 << 16
	comp0 := 0
	for i := 0; i < n; i++ {
		a := m.Next(rng)
		if a>>40 == 0 {
			comp0++
		}
	}
	got := float64(comp0) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("component 0 fraction = %g, want 0.25", got)
	}
	if m.Footprint() != 200 {
		t.Fatalf("mix footprint = %d", m.Footprint())
	}
}

func TestMixDisjointSpaces(t *testing.T) {
	m := MustMix(
		Component{Pattern: &Scan{Lines: 10}, Weight: 1},
		Component{Pattern: &Scan{Lines: 10}, Weight: 1},
	)
	rng := hash.NewSplitMix64(5)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[m.Next(rng)] = true
	}
	// Two 10-line scans in disjoint subspaces: 20 distinct addresses.
	if len(seen) != 20 {
		t.Fatalf("distinct addresses = %d, want 20", len(seen))
	}
}

func TestMixValidation(t *testing.T) {
	if _, err := NewMix(); err == nil {
		t.Fatal("empty mix must fail")
	}
	if _, err := NewMix(Component{Pattern: &Scan{Lines: 1}, Weight: 0}); err == nil {
		t.Fatal("zero weight must fail")
	}
	if _, err := NewMix(Component{Pattern: nil, Weight: 1}); err == nil {
		t.Fatal("nil pattern must fail")
	}
}

func TestPhasedRotation(t *testing.T) {
	p := &Phased{Stages: []Stage{
		{Pattern: &Scan{Lines: 5}, Length: 10},
		{Pattern: &Scan{Lines: 5}, Length: 10},
	}}
	rng := hash.NewSplitMix64(6)
	// Phased starts mid-rotation bookkeeping: collect subspace ids over
	// two full rotations and expect both stages to appear.
	stages := map[uint64]int{}
	for i := 0; i < 40; i++ {
		stages[p.Next(rng)>>40]++
	}
	if len(stages) != 2 || stages[0] != 20 || stages[1] != 20 {
		t.Fatalf("stage distribution = %v", stages)
	}
	if p.Footprint() != 5 {
		t.Fatalf("phased footprint = %d", p.Footprint())
	}
}

func TestAppDeterminism(t *testing.T) {
	spec, ok := Lookup("omnetpp")
	if !ok {
		t.Fatal("omnetpp missing")
	}
	a := NewApp(spec, 42)
	b := NewApp(spec, 42)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed apps must generate identical streams")
		}
	}
	c := NewApp(spec, 43)
	diff := 0
	for i := 0; i < 1000; i++ {
		if a.Next() != c.Next() {
			diff++
		}
	}
	if diff < 500 {
		t.Fatal("different seeds should diverge")
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 29 {
		t.Fatalf("registry has %d apps, want 29 (SPEC CPU2006)", len(names))
	}
	seen := map[string]bool{}
	reg := Registry()
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate app %s", n)
		}
		seen[n] = true
		spec, ok := reg[n]
		if !ok {
			t.Fatalf("Registry missing %s", n)
		}
		if spec.APKI <= 0 || spec.CPIBase <= 0 || spec.MLP <= 0 || spec.Build == nil {
			t.Fatalf("%s has invalid parameters: %+v", n, spec)
		}
		if p := spec.Build(); p == nil || p.Footprint() <= 0 {
			t.Fatalf("%s builds a bad pattern", n)
		}
	}
	if _, ok := Lookup("not-a-benchmark"); ok {
		t.Fatal("Lookup must fail for unknown names")
	}
}

func TestMemoryIntensiveSubset(t *testing.T) {
	mi := MemoryIntensive()
	if len(mi) != 18 {
		t.Fatalf("memory-intensive pool has %d apps, want 18", len(mi))
	}
	for _, n := range mi {
		spec, ok := Lookup(n)
		if !ok {
			t.Fatalf("%s not in registry", n)
		}
		if spec.APKI < 4 {
			t.Errorf("%s APKI %g is not memory-intensive", n, spec.APKI)
		}
	}
}

func TestCliffAppsListed(t *testing.T) {
	for name, cliff := range CliffApps() {
		if _, ok := Lookup(name); !ok {
			t.Errorf("cliff app %s not in registry", name)
		}
		if cliff <= 0 {
			t.Errorf("cliff app %s has bad cliff position %d", name, cliff)
		}
	}
}

func TestScanLinesForPlacement(t *testing.T) {
	// Pure scan, no interference: footprint equals the cliff.
	if got := scanLinesFor(2, 1, 0, 0); got != int64(2*curve.LinesPerMB) {
		t.Fatalf("scanLinesFor = %d", got)
	}
	// With a huge-stream interleave, the footprint shrinks to compensate.
	shrunk := scanLinesFor(2, 0.5, 0.5, 0)
	if shrunk >= int64(2*curve.LinesPerMB) || shrunk <= 0 {
		t.Fatalf("interleave-compensated footprint = %d", shrunk)
	}
	// Degenerate inputs fall back to a positive footprint.
	if got := scanLinesFor(1, 0.5, 0.5, 2); got <= 0 {
		t.Fatalf("fallback footprint = %d", got)
	}
}

func TestInstrPerAccess(t *testing.T) {
	spec := Spec{Name: "x", APKI: 20, CPIBase: 1, MLP: 1, Build: func() Pattern { return &Scan{Lines: 1} }}
	app := NewApp(spec, 1)
	if got := app.InstrPerAccess(); got != 50 {
		t.Fatalf("InstrPerAccess = %g, want 50", got)
	}
}

// TestDegenerateFootprintsRejected is the regression test for the
// zero-footprint bug: Scan{Lines: 0} used to loop forever on address 0
// and Rand{Lines: 0} panicked inside Uint64n; both must now be rejected
// at spec-build time with a descriptive error.
func TestDegenerateFootprintsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Pattern
	}{
		{"scan-zero", &Scan{Lines: 0}},
		{"scan-negative", &Scan{Lines: -5}},
		{"rand-zero", &Rand{Lines: 0}},
		{"zipf-zero", &Zipf{Lines: 0, S: 1.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := Validate(tc.p); err == nil || !strings.Contains(err.Error(), "footprint") {
				t.Fatalf("Validate = %v, want footprint error", err)
			}
			if _, err := NewMix(Component{tc.p, 1}); err == nil {
				t.Fatal("NewMix accepted a degenerate component")
			}
			if _, err := NewPhased(Stage{tc.p, 100}); err == nil {
				t.Fatal("NewPhased accepted a degenerate stage")
			}
		})
	}
}

func TestPhasedValidation(t *testing.T) {
	if _, err := NewPhased(); err == nil {
		t.Fatal("NewPhased with no stages must fail")
	}
	if _, err := NewPhased(Stage{&Scan{Lines: 4}, 0}); err == nil {
		t.Fatal("NewPhased with zero-length stage must fail")
	}
	if _, err := NewPhased(Stage{nil, 10}); err == nil {
		t.Fatal("NewPhased with nil pattern must fail")
	}
	p, err := NewPhased(Stage{&Scan{Lines: 4}, 10}, Stage{&Rand{Lines: 8}, 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.Footprint() != 8 {
		t.Fatalf("footprint = %d", p.Footprint())
	}
}

// TestNewAppPanicsOnDegenerateSpec covers bare primitives that bypass
// the composite constructors: NewApp validates the built pattern.
func TestNewAppPanicsOnDegenerateSpec(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewApp accepted a zero-footprint pattern")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "footprint") {
			t.Fatalf("panic = %v, want footprint message", r)
		}
	}()
	NewApp(Spec{
		Name: "bad", APKI: 1, CPIBase: 1, MLP: 1,
		Build: func() Pattern { return &Rand{Lines: 0} },
	}, 1)
}

// TestRegistryValidates ensures every registry clone still builds under
// the new validation (all footprints are ≥ 1 by construction).
func TestRegistryValidates(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Lookup(name)
		if err := Validate(spec.Build()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestResolve(t *testing.T) {
	if _, err := Resolve("mcf"); err != nil {
		t.Fatalf("registry name: %v", err)
	}
	if _, err := Resolve("no-such-app"); err == nil {
		t.Fatal("unknown app resolved")
	}
	if _, err := Resolve("nosuchsource:arg"); err == nil {
		t.Fatal("unknown source resolved")
	}
	// A recording is not an app name: it is named by -trace, which makes
	// each of its partitions an app.
	if _, err := Resolve("trace:x"); err == nil {
		t.Fatal("trace:x resolved")
	}
}

// TestEmptyMixRejected: a zero-value &Mix{} must fail Validate (and
// NewApp), not pass the Mix arm vacuously and panic at m.comps[i] on
// the first Next.
func TestEmptyMixRejected(t *testing.T) {
	if err := Validate(&Mix{}); err == nil {
		t.Fatal("Validate accepted an empty mix")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewApp accepted an empty mix")
		}
	}()
	NewApp(Spec{Name: "empty", APKI: 1, CPIBase: 1, MLP: 1,
		Build: func() Pattern { return &Mix{} }}, 1)
}
