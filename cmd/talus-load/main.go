// Command talus-load is the closed-loop load harness for talus-serve:
// a fixed worker pool drives cache GETs and PUTs back-to-back against
// one node or a -route cluster, with key popularity drawn from the same
// workload patterns the simulator uses. It measures what the serving
// tier actually delivers — hit ratio from the X-Talus-Cache header (a
// GET is a hit only when its body was served from the owner's memory),
// p50/p99/p999 latency from integer HDR-style histograms, per-node
// traffic from X-Talus-Node — and writes the merged report as JSON
// (BENCH_cluster.json in CI).
//
// Usage:
//
//	talus-load -nodes host1:p1,host2:p2,... [-tenant bench]
//	           [-keys 10000] [-value-bytes 256] [-pattern zipf]
//	           [-zipf-s 0.9] [-workers 8]
//	           [-duration 10s] [-max-requests 0]
//	           [-set-fraction 0.1] [-ttl 0] [-seed 42]
//	           [-out report.json]
//
// Closed-loop means each worker waits for its response before issuing
// the next request: when the server slows down, offered load drops
// instead of queueing — the harness measures the server, not its own
// backlog. Workers are not paced: throughput is whatever -workers
// closed loops sustain, and latency is service time at that
// concurrency. The repo's tracked numbers come from `make bench`
// (BENCHMARK.json), not from this tool.
//
// Patterns: "zipf" (exponent -zipf-s), "rand" (uniform), "scan"
// (sequential sweep), "phased" (alternating zipf/scan stages — the
// cliff-maker the paper's figures are built on), "strided" (fixed-step
// sweep), "pointerchase" (pseudo-random dependent ring), "diurnal"
// (zipf whose hot set rotates through the population), and
// "cliffseeker" (scan/zipf blend whose miss-curve cliff sits inside the
// key population — the adversarial case Talus is built to flatten).
//
// Exit status is non-zero when the run errored or every request failed,
// so CI smoke lanes can gate on it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"talus/internal/loadgen"
	"talus/internal/workload"
)

func main() {
	var (
		nodes       = flag.String("nodes", "", "comma-separated target nodes (host:port,...)")
		tenant      = flag.String("tenant", "bench", "cache tenant to drive")
		keys        = flag.Int64("keys", 10000, "distinct-key population")
		valueBytes  = flag.Int("value-bytes", 256, "PUT body size")
		pattern     = flag.String("pattern", "zipf", "key popularity: zipf, rand, scan, phased, strided, pointerchase, diurnal, cliffseeker")
		zipfS       = flag.Float64("zipf-s", 0.9, "zipf exponent for -pattern zipf/phased")
		workers     = flag.Int("workers", loadgen.DefaultWorkers, "closed-loop worker count")
		duration    = flag.Duration("duration", 10*time.Second, "run length (0 = until -max-requests)")
		maxRequests = flag.Int64("max-requests", 0, "request bound (0 = until -duration)")
		setFraction = flag.Float64("set-fraction", 0.1, "fraction of requests that are PUTs")
		ttl         = flag.Int("ttl", 0, "X-Talus-TTL seconds stamped on PUTs (0 = none)")
		seed        = flag.Uint64("seed", 42, "deterministic seed for key and read/write choice")
		out         = flag.String("out", "", "write the JSON report here (default stdout only)")
	)
	flag.Parse()
	if err := run(*nodes, *tenant, *keys, *valueBytes, *pattern, *zipfS,
		*workers, *duration, *maxRequests, *setFraction, *ttl, *seed, *out); err != nil {
		fmt.Fprintf(os.Stderr, "talus-load: %v\n", err)
		os.Exit(1)
	}
}

func run(nodes, tenant string, keys int64, valueBytes int, patternName string, zipfS float64,
	workers int, duration time.Duration, maxRequests int64, setFraction float64, ttl int,
	seed uint64, out string) error {
	var targets []string
	for _, n := range strings.Split(nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			targets = append(targets, n)
		}
	}
	// Build once to check -pattern; each worker then builds its own.
	if _, err := buildPattern(patternName, keys, zipfS); err != nil {
		return err
	}
	pattern := func() workload.Pattern {
		p, _ := buildPattern(patternName, keys, zipfS)
		return p
	}
	runner, err := loadgen.New(loadgen.Config{
		Nodes:       targets,
		Tenant:      tenant,
		Keys:        keys,
		ValueBytes:  valueBytes,
		Pattern:     pattern,
		Workers:     workers,
		Duration:    duration,
		MaxRequests: maxRequests,
		SetFraction: setFraction,
		TTLSeconds:  ttl,
		Seed:        seed,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := runner.Run(ctx)
	if err != nil {
		return err
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if out != "" {
		if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if rep.Requests == 0 {
		return fmt.Errorf("no requests completed against %v", targets)
	}
	if rep.Errors == rep.Requests {
		return fmt.Errorf("all %d requests failed", rep.Requests)
	}
	return nil
}

// buildPattern maps the -pattern name onto an internal/workload
// popularity source over the key population.
func buildPattern(name string, keys int64, zipfS float64) (workload.Pattern, error) {
	switch name {
	case "zipf":
		return workload.NewZipf(keys, zipfS), nil
	case "rand":
		return &workload.Rand{Lines: keys}, nil
	case "scan":
		return &workload.Scan{Lines: keys}, nil
	case "phased":
		// The cliff shape: a popular zipf core alternating with full-
		// population scans, each stage a few times the population long.
		return workload.NewPhased(
			workload.Stage{Pattern: workload.NewZipf(keys, zipfS), Length: 4 * keys},
			workload.Stage{Pattern: &workload.Scan{Lines: keys}, Length: 2 * keys},
		)
	case "strided":
		// Stride 7 is usually coprime with the population, so the sweep
		// still covers every key, just out of order.
		return &workload.Strided{Lines: keys, Stride: 7}, nil
	case "pointerchase":
		return workload.NewPointerChase(keys, 0x10AD), nil
	case "diurnal":
		// The hot set shifts by 1/16 of the population every 8 laps.
		return workload.NewDiurnal(keys, zipfS, 8*keys, keys/16)
	case "cliffseeker":
		// Place the miss-curve knee inside the population: a cache that
		// holds 2/3 of the keys sits right on the cliff.
		return workload.NewCliffSeeker(keys * 2 / 3)
	}
	return nil, fmt.Errorf("unknown -pattern %q (valid: zipf, rand, scan, phased, strided, pointerchase, diurnal, cliffseeker)", name)
}
