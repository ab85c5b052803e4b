// Command bench is the repository's benchmark: four fixed-op-count
// workloads from store.Get to the proxied hop, every reply verified,
// every metric printed by name and unit. See README.md.
//
//	cd bench && go run . -workload store-cliff [-seed N] [-seconds S] [-trace 0|1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// processStart is as close to process start as Go code gets: setup_s
// runs from here to the first timed op.
var processStart = time.Now()

const (
	defaultSeconds  = 12 // BENCHMARK.json's run_seconds: freezes the op counts
	defaultBasePort = 39201
	defaultSetups   = 3 // an untraced run sets up this many times and reports the median
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters after flag parsing.
type config struct {
	spec     *spec
	seed     uint64
	seconds  int
	basePort int
	outDir   string
	warmOps  int // the spec's counts; tests run smaller ones
	timedOps int
	setups   int

	// Ladder sample sizes: cache-stack accesses, store calls, HTTP requests.
	ladderAccesses, ladderOps, ladderReqs int
}

func main() {
	workload := flag.String("workload", "", "workload to run: store-cliff, store-churn, http-hot, cluster-hop")
	seed := flag.Uint64("seed", 1, "input seed: the only randomness")
	seconds := flag.Int("seconds", defaultSeconds, "length unit of the run: op counts are a frozen rate times this, never a wall-clock deadline")
	trace := flag.Int("trace", 0, "1: traced run at a quarter of the op count, reports the per-layer metrics")
	basePort := flag.Int("base-port", defaultBasePort, "first of the three fixed loopback ports the ring nodes listen on")
	outDir := flag.String("out", "", "directory the traced run writes trace-<workload>.json to (default: bench/out from the repo root, out from bench/)")
	aa := flag.Bool("aa", false, "A/A mode: two interleaved sets of -runs runs per workload (all, or the one -workload names), checked against BENCHMARK.json")
	runs := flag.Int("runs", 10, "runs per set in A/A mode")
	manifest := flag.String("manifest", "", "A/A mode: the manifest whose bounds are checked (default: BENCHMARK.json here or one directory up)")
	flag.Parse()

	if runtime.NumCPU() < 2 {
		fatal(fmt.Errorf("%d CPU: the workloads run 2 clients beside the servers and need at least 2", runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(2)

	if *aa {
		if err := runAA(*manifest, *workload, *runs, *seconds, *basePort); err != nil {
			fatal(err)
		}
		return
	}
	s, err := specByName(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %d: want 1..60", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *outDir == "" {
		*outDir = "out"
		if st, err := os.Stat("bench"); err == nil && st.IsDir() {
			*outDir = "bench/out"
		}
	}
	cfg := config{spec: s, seed: *seed, seconds: *seconds, basePort: *basePort, outDir: *outDir,
		warmOps: s.warmOps, timedOps: s.opsPerSec * *seconds, setups: defaultSetups,
		ladderAccesses: 1 << 21, ladderOps: 1 << 19, ladderReqs: 1 << 15}

	var res result
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runMeasured(cfg, rigOpts{})
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	os.Exit(exitCode(res))
}

// exitCode is 0 only when every reply matched the model.
func exitCode(res result) int {
	if !res.Correct {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// hostStamp describes the machine, and with run the run, so a number
// can never pass for one taken on other hardware or at another size.
func hostStamp(run map[string]any) map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				model = strings.TrimSpace(val)
				break
			}
		}
	}
	h := map[string]any{"nproc": runtime.NumCPU(), "cpu": model, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0)}
	for k, v := range run {
		h[k] = v
	}
	return h
}

// runStamp is the stamp of one run of cfg's workload.
func runStamp(cfg config, clients, warmOps, timedOps int) map[string]any {
	return hostStamp(map[string]any{
		"workload": cfg.spec.name, "seed": cfg.seed, "seconds": cfg.seconds,
		"clients": clients, "warm_ops": warmOps, "timed_ops": timedOps,
	})
}

func printStamp(h map[string]any) {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, h[k])
	}
	fmt.Println("host:" + b.String())
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// prepared is a rig ready for its first timed op.
type prepared struct {
	rig  *rig
	reqs [][][]byte // HTTP: the timed streams pre-rendered, per client
	warm pass
}

// prepare builds the program for s, preloads it, pre-renders the
// requests of an HTTP workload and runs the warm-up pass: with input
// generation, one whole set-up. warm and timed hold one stream per client.
func prepare(cfg config, s *spec, in *inputs, warm, timed [][]op, o rigOpts) (*prepared, error) {
	o.basePort = cfg.basePort
	r, err := newRig(s, in, len(timed), o)
	if err != nil {
		return nil, err
	}
	p := &prepared{rig: r}
	if err := r.preload(); err != nil {
		r.close()
		return nil, err
	}
	var warmReqs [][][]byte
	if s.http {
		scratch := &model{ver: slices.Clone(r.model.ver)}
		for c := range timed {
			warmReqs = append(warmReqs, renderStream(in, scratch, warm[c]))
			p.reqs = append(p.reqs, renderStream(in, scratch, timed[c]))
		}
	}
	if p.warm, err = r.run(warm, warmReqs, nil, nil); err != nil {
		r.close()
		return nil, err
	}
	return p, nil
}

// runMeasured is the untraced run: the end-to-end metrics. o is the
// zero value outside tests.
func runMeasured(cfg config, o rigOpts) (result, error) {
	s := cfg.spec
	stamp := runStamp(cfg, s.clients, cfg.warmOps, cfg.timedOps)
	printStamp(stamp)

	// Set up several times and report the median, so one hiccup during
	// set-up does not decide setup_s; the last set-up is the one timed.
	var p *prepared
	var in *inputs
	setupS := make([]float64, cfg.setups)
	var warmFailed int64
	start := processStart
	for i := range setupS {
		if p != nil {
			if err := p.rig.close(); err != nil {
				return result{}, err
			}
			p = nil
			start = time.Now()
		}
		var err error
		in = generate(s, cfg.seed, s.clients, cfg.warmOps, cfg.timedOps)
		if p, err = prepare(cfg, s, in, in.warm, in.timed, o); err != nil {
			return result{}, err
		}
		runtime.GC()
		setupS[i] = time.Since(start).Seconds()
		warmFailed += p.warm.failed
	}
	defer p.rig.close()
	fmt.Printf("setup: %.3f s each (median reported), streams digest %016x\n", setupS, in.digest)

	timed, err := p.rig.run(in.timed, p.reqs, nil, nil)
	if err != nil {
		return result{}, err
	}
	if timed.firstFail != "" {
		fmt.Println("first failure:", timed.firstFail)
	} else if p.warm.firstFail != "" {
		fmt.Println("first failure (warm-up):", p.warm.firstFail)
	}

	p50, p95, p99, p999, samples := timed.percentile(0.50), timed.percentile(0.95), timed.percentile(0.99), timed.percentile(0.999), len(timed.lat)
	epochs := p.rig.stores[0].Cache().Epochs()
	// The live state the cache keeps: the heap after the inputs and the
	// samples are gone.
	timed.lat, in.warm, in.timed, p.reqs = nil, nil, nil, nil
	heap := heapAlloc()

	slices.Sort(setupS)
	ops := float64(timed.ops)
	metrics := map[string]metric{
		"setup_s":       {setupS[len(setupS)/2], "s"},
		"ops_per_s":     {timed.opsPerSec(), "ops/s"},
		"lat_p50_us":    {p50, "us"},
		"lat_p95_us":    {p95, "us"},
		"cpu_us_per_op": {float64(timed.cpu.Microseconds()) / ops, "us"},
		"hit_ratio":     {timed.hitRatio(), "ratio"},
		"allocs_per_op": {float64(timed.mallocs) / ops, "count"},
		"mem_mb":        {float64(heap) / (1 << 20), "MB"},
		"ok_ratio":      {float64(timed.ops-timed.failed) / ops, "ratio"},
	}
	printMetrics(metrics)
	fmt.Printf("timed region: %.3f s wall, %d ops, %d gets, %d backend gets, %d epochs on node 0\n",
		timed.wall.Seconds(), timed.ops, timed.gets, timed.backendGets, epochs)
	fmt.Printf("latency: %d samples; p95 %.3f us (%d beyond), p99 %.3f us (%d beyond), p99.9 %.3f us (%d beyond) — p99 and up do not repeat run to run and are not gated\n",
		samples, p95, samples/20, p99, samples/100, p999, samples/1000)
	return result{
		Correct:   timed.failed == 0 && warmFailed == 0,
		Attempted: timed.ops,
		Failed:    timed.failed,
		Metrics:   metrics,
	}, nil
}
