package workload

import (
	"encoding/binary"
	"hash/fnv"
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
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate app %s", n)
		}
		seen[n] = true
		spec, ok := Lookup(n)
		if !ok {
			t.Fatalf("Lookup misses %s", n)
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

// TestStreamFingerprints pins the stream behind every name Resolve
// knows: the 29 clones, the named generators, and one gen: spelling per
// generator family. Each row is FNV-1a over the first 4096 addresses
// (little-endian) an App draws at seed 1, so a change to how patterns
// are built or named that moves any stream fails here.
func TestStreamFingerprints(t *testing.T) {
	cases := []struct {
		name string
		fnv  uint64
	}{
		{"perlbench", 0x1ba59a10e9894aca},
		{"bzip2", 0x604182cd3942a0c8},
		{"gcc", 0x63dab86b5a21ad43},
		{"mcf", 0x5a16bb0508df53f0},
		{"gobmk", 0x3201d545e73c0e0a},
		{"hmmer", 0x09ee58dd96d178de},
		{"sjeng", 0x9f4371d93efb22ce},
		{"libquantum", 0x9735be2ba5613bcc},
		{"h264ref", 0x819198173e999ac1},
		{"omnetpp", 0x3ba15fd5621337df},
		{"astar", 0x25f76ba72ec72bd2},
		{"xalancbmk", 0x68c222afc51702c5},
		{"bwaves", 0xda3a06ef1be8ac09},
		{"gamess", 0xee11e23ce8bcc8f5},
		{"milc", 0xef3f15552eb6db13},
		{"zeusmp", 0xbf4a18ce40a314a9},
		{"gromacs", 0x4f4e5f3e18ca6001},
		{"cactusADM", 0x6a61e600dfa9fbcf},
		{"leslie3d", 0x93c37bd518cdf593},
		{"namd", 0x83c4c50a61571463},
		{"dealII", 0x65d108e048e215b7},
		{"soplex", 0x6ae76af9cdc2287a},
		{"povray", 0xee11e23ce8bcc8f5}, // gamess's mixture exactly
		{"calculix", 0xfb8f6439a4b99d41},
		{"GemsFDTD", 0xc44f5dd4d68517db},
		{"tonto", 0xae22609bb74281f7},
		{"lbm", 0xf4d2f3ffea4c3dac},
		{"wrf", 0x4bfff5dc0bcf1307},
		{"sphinx3", 0x354d549989c997d2},
		{"strided", 0xefeb4d09faea4125},
		{"pointerchase", 0xc191dc6ee58abe76},
		{"diurnal", 0x2ef06010c9c6731b},
		{"cliffseeker", 0x23bbe1f2c69211bb},
		{"gen:scan,mb=4", 0x34815615f489cb25},
		{"gen:rand,lines=4096", 0x78dc63e82e8a9a85},
		{"gen:zipf,mb=8,s=1.1", 0x63d87d83fdce1826},
		{"gen:strided,mb=32,stride=4", 0xefeb4d09faea4125},
		{"gen:pointerchase,lines=65536,seed=7", 0x908dfbc12ad56e6a},
		{"gen:diurnal,mb=8,s=0.9,period=262144,shift=8192", 0x2ef06010c9c6731b},
		{"gen:cliffseeker,mb=4", 0x3570f9a7c7a6eb71},
	}
	fingerprint := func(spec Spec) uint64 {
		app := NewApp(spec, 1)
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < 4096; i++ {
			binary.LittleEndian.PutUint64(b[:], app.Next())
			h.Write(b[:])
		}
		return h.Sum64()
	}
	pinned := map[string]bool{}
	for _, c := range cases {
		pinned[c.name] = true
		spec, err := Resolve(c.name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", c.name, err)
		}
		if got := fingerprint(spec); got != c.fnv {
			t.Errorf("%s: stream fingerprint %#016x, want %#016x", c.name, got, c.fnv)
		}
	}
	for _, n := range Names() {
		if !pinned[n] {
			t.Errorf("clone %s has no fingerprint row", n)
		}
	}
	// A named generator is its gen: spelling: same stream, same core
	// model.
	named, err := Resolve("strided")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Resolve("gen:strided,mb=32,stride=4")
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(named) != fingerprint(gen) ||
		named.APKI != gen.APKI || named.CPIBase != gen.CPIBase || named.MLP != gen.MLP {
		t.Errorf("strided %+v and its gen: spelling %+v differ", named, gen)
	}
}
