package talus_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestGuards keeps what earlier changes deleted deleted. Each row is one
// guard: names that must not come back as Go identifiers in a directory
// (comments and strings do not count), or flags a command must no longer
// define. Source is read with go/parser, so the guards run in
// `go test ./...` without building or starting anything. bench/ is its
// own module and is not scanned.
func TestGuards(t *testing.T) {
	guards := []struct {
		name string
		// dir and pattern: no name in dir's Go files (and, with tests, its
		// _test.go files) may match pattern. A name is an identifier, a
		// selector on one ("talus.RunMix", "c.shared"), or a top-level
		// declaration qualified by its package ("alloc.ByName").
		dir     string
		tests   bool
		pattern string
		// cmd and removed: the command in cmd defines none of the removed
		// flags on the flag package or a FlagSet named fs.
		cmd     string
		removed []string
	}{
		{name: "one-hit-path", dir: ".",
			pattern: `EnableSharedHits|SharedHitEnabler|\.shared$`},
		{name: "one-lock-per-access", dir: ".", tests: true,
			pattern: `AccessShared|SharedProber|ConcurrentHitter|ConcurrentHits|StableSetIndex|probeHits|bumpSeq|DefaultMonitorSlices|SampledSlice`},
		{name: "one-monitor-bank", dir: ".", tests: true,
			pattern: `LRUMonitor|NewUMON|(^|\.)UMON$`},
		{name: "simulator-names-off-the-root-package", dir: ".", tests: true,
			pattern: `^talus\.(RunMix|RunSweep|RunPoint|RunAdaptive|LookupWorkload|OptimalBypass|IPCOf)|AdmitRho`},
		{name: "one-allocator-one-array-policy", dir: ".", tests: true,
			pattern: `WithAllocator|WithPolicy|AllocatorByName|alloc\.ByName`},
		{name: "one-knob-per-setting", dir: ".", tests: true,
			pattern: `WithSeed|WithEpochInterval|WithWeights|WithMargin|WithMaxTenants|WithMaxValueBytes`},
		{name: "one-trace-path", dir: ".", tests: true,
			pattern: `RegisterSource|FeedAdaptiveTraceReader|traceAppSpec|adaptiveTraceCache|RecordApps|trace\.(Load|Capture|WriteRecords)`},
		{name: "one-stream-recipe", dir: ".", tests: true,
			pattern: `generatorList|GeneratorNames|mustSpec|InstrPerAccess|ConfidenceInterval95|HarmonicMean|^alloc\.(HillClimb|Lookahead|OptimalDP)$|^workload\.Registry$|OptimalDPAllocator`},
		// RunMix runs the serving loop's epoch step (adaptive.Loop).
		{name: "one-epoch-step", dir: "internal/sim", tests: true,
			pattern: `mixCache|plainMix|talusMix|buildMixCache|allocatorFor|closeEpoch`},
		// RunMix keeps time with one clock per core, which always finishes
		// (no epoch cap); a sweep profiles for its measure count.
		{name: "one-clock-per-core", dir: ".", tests: true,
			pattern: `MaxEpochs|ProfileAccesses`},
		// An allocation Request carries curves, budget, granule and
		// weights; no per-tenant line floor or cap rides along. The
		// anchors keep monitor's and oracle's lowercase maxLines legal.
		{name: "one-allocation-objective", dir: ".", tests: true,
			pattern: `^(WithTenantLines|LineBounds|SetPartitionLines|MinLines|MaxLines|ErrInfeasibleBounds|grantFloors|checkFloors)$`},
		// A store line holds one value, and every cache array keeps the
		// eviction hook and invalidation as part of cache.Shard, so the
		// cache layer probes nothing for them. Core probes its inner
		// cache once, for both (core.Evictor: core.PartitionedCache is
		// frozen).
		{name: "one-value-per-line", dir: ".", tests: true,
			pattern: `(^|\.)(EvictNotifier|Invalidator)$`},
		// The store states each fact once: one read expires a value, and
		// talus-sim mix fans its two runs out with sim.ParallelFor.
		{name: "each-fact-once", dir: ".", tests: true,
			pattern: `^(expireValue|RunMixes|EvictNotifier|Invalidator)$`},
		// Spec.Build is the one way to a fresh pattern (internal/trace's
		// tests call slices.Clone, so tests are not scanned).
		{name: "no-pattern-clone", dir: "internal",
			pattern: `^Clone$`},
		// The cache path speaks one request and one reply
		// (cluster.Request, cluster.Reply): the owned wire imitates no
		// net/http type, and no side door wins back what an imitation
		// costs. /v1/stats reads one counter per owned-connection fact.
		{name: "one-request-one-reply", dir: "internal", tests: true,
			pattern: `ETagWriter|wireWriter|SetETag|setETag|headerLine|needsEscape|plainPathByte|relayValues|hitValue|missValue|octetValue|jsonValue|countHandBack|ownedCounts`},
		// Every cache reply is framed by Content-Length on both
		// transports, so the hop decodes no other framing, and the mux is
		// the one dispatcher of the cache requests net/http parses.
		{name: "one-framing", dir: "internal", tests: true,
			pattern: `NewChunkedReader|^exchanges?$`},
		{name: "no-net-http-client-in-the-hop", dir: "internal/cluster",
			pattern: `^http\.(Client|Transport|NewRequest)`},
		{name: "talus-serve-removed-flags", cmd: "cmd/talus-serve",
			removed: []string{"self-tune", "min-epoch", "batch", "alloc", "policy", "max-tenants"}},
		{name: "talus-sim-removed-flags", cmd: "cmd/talus-sim",
			removed: []string{"self-tune", "spec", "batch", "alloc", "adaptive"}},
		{name: "talus-exp-removed-flags", cmd: "cmd/talus-exp",
			removed: []string{"quick", "full"}},
	}
	tree := parseTree(t)
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			var found []string
			if g.cmd == "" {
				found = tree.names(g.dir, g.tests, regexp.MustCompile(g.pattern))
			} else {
				defined := tree.flags(g.cmd)
				if len(defined) == 0 {
					t.Fatalf("found no flag definitions in %s", g.cmd)
				}
				for _, name := range g.removed {
					if at, ok := defined[name]; ok {
						found = append(found, fmt.Sprintf("%s: -%s", at, name))
					}
				}
			}
			if len(found) > 0 {
				t.Errorf("deleted by an earlier change, and back:\n\t%s", strings.Join(found, "\n\t"))
			}
		})
	}
}

// sourceTree is every Go file of the module outside bench/, testdata and
// dot-directories, parsed.
type sourceTree struct {
	fset  *token.FileSet
	files []sourceFile
}

type sourceFile struct {
	path string // slash-separated, relative to the module root
	test bool
	ast  *ast.File
}

func parseTree(t *testing.T) sourceTree {
	tree := sourceTree{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(tree.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tree.files = append(tree.files, sourceFile{filepath.ToSlash(path), strings.HasSuffix(path, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// in reports whether the file lies under dir ("." is the whole tree).
func (f sourceFile) in(dir string) bool {
	return dir == "." || strings.HasPrefix(f.path, dir+"/")
}

// names returns every name in dir's files that matches re, with where
// it appears.
func (tr sourceTree) names(dir string, tests bool, re *regexp.Regexp) []string {
	var found []string
	for _, f := range tr.files {
		if !f.in(dir) || (f.test && !tests) {
			continue
		}
		report := func(pos token.Pos, name string) {
			if re.MatchString(name) {
				found = append(found, fmt.Sprintf("%s: %s", tr.fset.Position(pos), name))
			}
		}
		pkg := f.ast.Name.Name
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					report(d.Name.Pos(), pkg+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						report(s.Name.Pos(), pkg+"."+s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							report(n.Pos(), pkg+"."+n.Name)
						}
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				report(n.Pos(), n.Name)
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					report(n.Pos(), x.Name+"."+n.Sel.Name)
				} else {
					report(n.Sel.Pos(), "."+n.Sel.Name)
				}
			}
			return true
		})
	}
	return found
}

// flagArg maps the flag package's definers to the index of the flag's
// name among their arguments.
var flagArg = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0,
	"Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Int64Var": 1, "IntVar": 1,
	"StringVar": 1, "TextVar": 1, "Uint64Var": 1, "UintVar": 1, "Var": 1,
}

// flags returns the flags the non-test files under cmd define on the
// flag package or on a FlagSet named fs, each with where it is defined.
func (tr sourceTree) flags(cmd string) map[string]string {
	defined := map[string]string{}
	for _, f := range tr.files {
		if f.test || !f.in(cmd) {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			arg, definer := flagArg[sel.Sel.Name]
			if !ok || (x.Name != "flag" && x.Name != "fs") || !definer || arg >= len(call.Args) {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					defined[name] = tr.fset.Position(lit.Pos()).String()
				}
			}
			return true
		})
	}
	return defined
}
