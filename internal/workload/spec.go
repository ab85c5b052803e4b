// SPEC CPU2006 clone registry.
//
// Each clone is a mixture of pattern primitives calibrated so its LRU miss
// curve matches the shape the paper reports (Figs. 1, 8, 10, 11, 13):
// cliff positions, plateau heights, and convex regions. Cliffs come from
// cyclic scans; because other mixture components interleave distinct lines
// between a scan line's reuses, a scan of F lines produces its LRU cliff at
// approximately
//
//	D ≈ F·(1 + w_huge/w_scan) + W_small
//
// lines, where w_huge is the weight of components whose footprints never
// fit (every interleaved access distinct) and W_small the total footprint
// of components that do fit. scanLinesFor inverts this to place cliffs at
// the published sizes. The clones' APKI/CPI/MLP drive the analytic IPC
// model (internal/sim); values are chosen to give each app the paper's
// approximate MPKI scale and memory intensity.
package workload

import (
	"fmt"
	"strings"
	"sync"

	"talus/internal/curve"
)

// sources maps a "<prefix>:" scheme to a resolver building a Spec from
// the text after the colon. Packages that can turn external inputs into
// workloads register here (internal/sim registers "trace" so
// "trace:<path>" names a recorded stream anywhere an app name is
// accepted).
var (
	sourcesMu sync.RWMutex
	sources   = map[string]func(arg string) (Spec, error){}
)

// RegisterSource installs a resolver for "<prefix>:<arg>" workload
// names. Registration happens at init time; re-registering a prefix
// panics.
func RegisterSource(prefix string, fn func(arg string) (Spec, error)) {
	sourcesMu.Lock()
	defer sourcesMu.Unlock()
	if _, dup := sources[prefix]; dup {
		panic(fmt.Sprintf("workload: source %q registered twice", prefix))
	}
	sources[prefix] = fn
}

// Resolve returns the Spec a workload name denotes: a registry clone
// name ("mcf"), or a registered source reference ("trace:run.trc").
func Resolve(name string) (Spec, error) {
	if s, ok := Lookup(name); ok {
		return s, nil
	}
	if prefix, arg, ok := strings.Cut(name, ":"); ok {
		sourcesMu.RLock()
		fn := sources[prefix]
		sourcesMu.RUnlock()
		if fn != nil {
			return fn(arg)
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown app %q (not a registry clone or registered source)", name)
}

// hugeLines is the footprint of the "never fits" background stream
// (512 MB), standing in for streaming data and page-table walks.
const hugeLines = int64(512 * curve.LinesPerMB)

// scanLinesFor returns the scan footprint that places an LRU cliff at
// cliffMB given the scan's weight, the total weight of never-fitting
// components, and the total footprint (MB) of small components.
func scanLinesFor(cliffMB, wScan, wHuge, smallMB float64) int64 {
	f := (cliffMB - smallMB) / (1 + wHuge/wScan)
	if f <= 0 {
		f = cliffMB / 2
	}
	return int64(f * curve.LinesPerMB)
}

// mb converts megabytes to lines.
func mb(x float64) int64 { return int64(x * curve.LinesPerMB) }

// Registry returns the full SPEC CPU2006 clone set (29 apps), keyed by
// name, in a deterministic order via Names.
func Registry() map[string]Spec {
	specs := make(map[string]Spec, len(registryList))
	for _, s := range registryList {
		specs[s.Name] = s
	}
	return specs
}

// Names returns the registry's app names in canonical (suite) order.
func Names() []string {
	out := make([]string, len(registryList))
	for i, s := range registryList {
		out[i] = s.Name
	}
	return out
}

// Lookup returns the Spec for name, with ok reporting success. Both the
// SPEC clone registry and the synthetic-generator registry
// (generators.go) are consulted; Names/Registry deliberately stay
// clone-only so suite enumerations remain the paper's 29 apps.
func Lookup(name string) (Spec, bool) {
	for _, s := range registryList {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range generatorList {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// MemoryIntensive returns the names of the 18 most memory-intensive
// clones, the pool the paper draws its 100 random 8-app mixes from
// (§VII-D).
func MemoryIntensive() []string {
	return []string{
		"mcf", "lbm", "libquantum", "milc", "soplex", "GemsFDTD",
		"sphinx3", "omnetpp", "xalancbmk", "bwaves", "gcc", "zeusmp",
		"cactusADM", "leslie3d", "astar", "wrf", "bzip2", "dealII",
	}
}

// CliffApps returns the clones whose LRU curves have pronounced cliffs,
// with the approximate cliff position in lines (used by experiments and
// calibration tests).
func CliffApps() map[string]int64 {
	return map[string]int64{
		"libquantum": mb(32),
		"omnetpp":    mb(2),
		"xalancbmk":  mb(6),
		"cactusADM":  mb(2),
		"lbm":        mb(5),
		"GemsFDTD":   mb(9),
		"wrf":        mb(6),
		"leslie3d":   mb(3),
		"perlbench":  mb(6),
	}
}

var registryList = []Spec{
	// ---- SPECint 2006 ------------------------------------------------
	{
		Name: "perlbench", APKI: 1.6, CPIBase: 0.55, MLP: 1.5,
		// Convex region from the 0.75 MB working set, then a cliff near
		// 6 MB: the shape where bypassing-based policies (PDP) fail
		// (§VII-C).
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.75)}, 0.55},
				Component{&Scan{Lines: scanLinesFor(6, 0.30, 0.15, 0.75)}, 0.30},
				Component{&Rand{Lines: hugeLines}, 0.15},
			)
		},
	},
	{
		Name: "bzip2", APKI: 6, CPIBase: 0.60, MLP: 2.0,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.4)}, 0.50},
				Component{&Rand{Lines: mb(1.8)}, 0.35},
				Component{&Rand{Lines: hugeLines}, 0.15},
			)
		},
	},
	{
		Name: "gcc", APKI: 22, CPIBase: 0.60, MLP: 2.0,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.3)}, 0.50},
				Component{&Rand{Lines: mb(1.8)}, 0.42},
				Component{&Rand{Lines: hugeLines}, 0.08},
			)
		},
	},
	{
		Name: "mcf", APKI: 25, CPIBase: 0.80, MLP: 1.3,
		// Pointer-chasing with a heavy-tailed working set: mostly convex,
		// where reuse classification (RRIP) shines and Talus-on-LRU only
		// matches LRU (§VII-C discusses exactly this limitation).
		Build: func() Pattern {
			return MustMix(
				Component{NewZipf(mb(24), 0.90), 0.55},
				Component{&Rand{Lines: mb(1)}, 0.30},
				Component{&Rand{Lines: hugeLines}, 0.15},
			)
		},
	},
	{
		Name: "gobmk", APKI: 0.9, CPIBase: 0.55, MLP: 1.5,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.25)}, 0.45},
				Component{&Rand{Lines: mb(1)}, 0.30},
				Component{&Scan{Lines: scanLinesFor(4, 0.15, 0.10, 1.25)}, 0.15},
				Component{&Rand{Lines: hugeLines}, 0.10},
			)
		},
	},
	{
		Name: "hmmer", APKI: 2.5, CPIBase: 0.45, MLP: 2.0,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.5)}, 0.90},
				Component{&Rand{Lines: hugeLines}, 0.10},
			)
		},
	},
	{
		Name: "sjeng", APKI: 1.2, CPIBase: 0.55, MLP: 1.5,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.25)}, 0.55},
				Component{&Rand{Lines: mb(32)}, 0.35},
				Component{&Rand{Lines: hugeLines}, 0.10},
			)
		},
	},
	{
		Name: "libquantum", APKI: 33, CPIBase: 0.45, MLP: 3.0,
		// The paper's flagship cliff (Fig. 1): a pure cyclic scan over a
		// 32 MB array — 0 hits below 32 MB of cache, ~all hits above.
		Build: func() Pattern {
			return MustMix(
				Component{&Scan{Lines: scanLinesFor(32, 0.99, 0.01, 0)}, 0.99},
				Component{&Rand{Lines: hugeLines}, 0.01},
			)
		},
	},
	{
		Name: "h264ref", APKI: 1.8, CPIBase: 0.50, MLP: 2.0,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.4)}, 0.85},
				Component{&Rand{Lines: hugeLines}, 0.15},
			)
		},
	},
	{
		Name: "omnetpp", APKI: 28, CPIBase: 0.70, MLP: 1.4,
		// Cliff at 2 MB (Fig. 13b).
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.25)}, 0.30},
				Component{&Scan{Lines: scanLinesFor(2, 0.50, 0.20, 0.25)}, 0.50},
				Component{&Rand{Lines: hugeLines}, 0.20},
			)
		},
	},
	{
		Name: "astar", APKI: 9, CPIBase: 0.65, MLP: 1.4,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.8)}, 0.55},
				Component{&Rand{Lines: mb(3)}, 0.30},
				Component{&Rand{Lines: hugeLines}, 0.15},
			)
		},
	},
	{
		Name: "xalancbmk", APKI: 30, CPIBase: 0.60, MLP: 1.6,
		// Convex region then a cliff at 6 MB (Figs. 10f, 13c).
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.5)}, 0.50},
				Component{&Scan{Lines: scanLinesFor(6, 0.42, 0.08, 0.5)}, 0.42},
				Component{&Rand{Lines: hugeLines}, 0.08},
			)
		},
	},
	// ---- SPECfp 2006 -------------------------------------------------
	{
		Name: "bwaves", APKI: 18, CPIBase: 0.50, MLP: 3.5,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(2)}, 0.15},
				Component{&Rand{Lines: hugeLines}, 0.85},
			)
		},
	},
	{
		Name: "gamess", APKI: 0.3, CPIBase: 0.45, MLP: 2.0,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.3)}, 0.90},
				Component{&Rand{Lines: hugeLines}, 0.10},
			)
		},
	},
	{
		Name: "milc", APKI: 16, CPIBase: 0.55, MLP: 3.0,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.5)}, 0.08},
				Component{&Rand{Lines: hugeLines}, 0.92},
			)
		},
	},
	{
		Name: "zeusmp", APKI: 6, CPIBase: 0.50, MLP: 2.5,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(1)}, 0.40},
				Component{&Rand{Lines: mb(8)}, 0.25},
				Component{&Rand{Lines: hugeLines}, 0.35},
			)
		},
	},
	{
		Name: "gromacs", APKI: 1.5, CPIBase: 0.50, MLP: 2.0,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.6)}, 0.80},
				Component{&Rand{Lines: hugeLines}, 0.20},
			)
		},
	},
	{
		Name: "cactusADM", APKI: 9, CPIBase: 0.60, MLP: 2.0,
		// Plateau then cliff near 2 MB (Fig. 10c), where reused-line
		// classification helps RRIP beat Talus-on-LRU.
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.3)}, 0.20},
				Component{&Scan{Lines: scanLinesFor(2, 0.55, 0.25, 0.3)}, 0.55},
				Component{&Rand{Lines: hugeLines}, 0.25},
			)
		},
	},
	{
		Name: "leslie3d", APKI: 12, CPIBase: 0.50, MLP: 3.0,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.5)}, 0.10},
				Component{&Scan{Lines: scanLinesFor(3, 0.30, 0.60, 0.5)}, 0.30},
				Component{&Rand{Lines: hugeLines}, 0.60},
			)
		},
	},
	{
		Name: "namd", APKI: 0.8, CPIBase: 0.45, MLP: 2.0,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.5)}, 0.85},
				Component{&Rand{Lines: hugeLines}, 0.15},
			)
		},
	},
	{
		Name: "dealII", APKI: 4, CPIBase: 0.50, MLP: 1.8,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.6)}, 0.50},
				Component{&Rand{Lines: mb(2.5)}, 0.35},
				Component{&Rand{Lines: hugeLines}, 0.15},
			)
		},
	},
	{
		Name: "soplex", APKI: 25, CPIBase: 0.65, MLP: 1.8,
		Build: func() Pattern {
			return MustMix(
				Component{NewZipf(mb(32), 0.85), 0.50},
				Component{&Rand{Lines: mb(0.8)}, 0.30},
				Component{&Rand{Lines: hugeLines}, 0.20},
			)
		},
	},
	{
		Name: "povray", APKI: 0.08, CPIBase: 0.50, MLP: 1.5,
		// Exceptionally low memory intensity: the paper's example of an
		// app whose LLC stream is too sparse for statistically uniform
		// sampling (§VII-B) — kept deliberately tiny.
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.3)}, 0.90},
				Component{&Rand{Lines: hugeLines}, 0.10},
			)
		},
	},
	{
		Name: "calculix", APKI: 1.4, CPIBase: 0.45, MLP: 2.2,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.5)}, 0.60},
				Component{&Rand{Lines: mb(4)}, 0.25},
				Component{&Rand{Lines: hugeLines}, 0.15},
			)
		},
	},
	{
		Name: "GemsFDTD", APKI: 14, CPIBase: 0.55, MLP: 2.5,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.8)}, 0.20},
				Component{&Scan{Lines: scanLinesFor(9, 0.45, 0.35, 0.8)}, 0.45},
				Component{&Rand{Lines: hugeLines}, 0.35},
			)
		},
	},
	{
		Name: "tonto", APKI: 0.07, CPIBase: 0.50, MLP: 1.5,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.4)}, 0.90},
				Component{&Rand{Lines: hugeLines}, 0.10},
			)
		},
	},
	{
		Name: "lbm", APKI: 34, CPIBase: 0.50, MLP: 3.5,
		// Streaming with a 5 MB reuse cliff (Fig. 10e), where RRIP
		// underperforms LRU-based schemes.
		Build: func() Pattern {
			return MustMix(
				Component{&Scan{Lines: scanLinesFor(5, 0.42, 0.58, 0)}, 0.42},
				Component{&Rand{Lines: hugeLines}, 0.58},
			)
		},
	},
	{
		Name: "wrf", APKI: 7, CPIBase: 0.50, MLP: 2.5,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(1)}, 0.35},
				Component{&Scan{Lines: scanLinesFor(6, 0.30, 0.35, 1)}, 0.30},
				Component{&Rand{Lines: hugeLines}, 0.35},
			)
		},
	},
	{
		Name: "sphinx3", APKI: 13, CPIBase: 0.55, MLP: 2.0,
		Build: func() Pattern {
			return MustMix(
				Component{&Rand{Lines: mb(0.7)}, 0.45},
				Component{&Rand{Lines: mb(6)}, 0.40},
				Component{&Rand{Lines: hugeLines}, 0.15},
			)
		},
	},
}
