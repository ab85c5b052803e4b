// Package loadgen is a closed-loop HTTP load harness for the talus
// serving tier. A fixed pool of workers issues cache GETs and PUTs
// back-to-back against one or more nodes, with key popularity drawn
// from the same internal/workload patterns the simulator uses — so a
// zipf curve that produces a cliff in simulation produces the same
// reference stream against a live cluster.
//
// Closed-loop means each worker waits for its previous response before
// issuing the next request: concurrency is bounded by the worker count,
// and when the server slows down the offered load drops instead of
// piling up an unbounded backlog. Workers are not paced (the shape
// bench/drive.go uses too), so a latency here is a service time at the
// stated worker count.
//
// Latency is captured per worker in integer-microsecond HDR-style
// histograms (hist.go) and merged after the run: the hot path performs
// no locking, no allocation, and no floating-point work.
package loadgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"talus/internal/hash"
	"talus/internal/workload"
)

// DefaultWorkers is the worker-pool size when the caller does not
// choose one: enough concurrency to saturate a small cluster without
// swamping the client host.
const DefaultWorkers = 8

// Config parameterizes a load run.
type Config struct {
	// Nodes are the target servers as host:port, dialed round-robin per
	// worker. With a proxying cluster any node accepts any key.
	Nodes []string
	// Tenant is the cache tenant all requests address.
	Tenant string
	// Keys is the distinct-key population; pattern addresses are folded
	// into [0, Keys).
	Keys int64
	// ValueBytes sizes PUT bodies.
	ValueBytes int
	// Pattern draws key popularity (nil = uniform over Keys). Each
	// worker runs an independent Clone with its own RNG.
	Pattern workload.Pattern
	// Workers is the closed-loop concurrency (0 = DefaultWorkers).
	Workers int
	// Duration bounds the run in wall time (0 = until MaxRequests).
	Duration time.Duration
	// MaxRequests bounds the run in requests (0 = until Duration).
	// At least one bound must be set.
	MaxRequests int64
	// SetFraction is the probability a request is a PUT (the rest are
	// GETs). 0.1 means a 90/10 read/write mix.
	SetFraction float64
	// TTLSeconds, when positive, stamps X-Talus-TTL on every PUT.
	TTLSeconds int
	// Seed makes key choice and read/write choice deterministic.
	Seed uint64
	// Client overrides the HTTP client (tests); nil builds a pooled
	// transport sized to the worker count.
	Client *http.Client
}

// Report is one run's result, shaped for BENCH_cluster.json.
type Report struct {
	Nodes       []string `json:"nodes"`
	Tenant      string   `json:"tenant"`
	Workers     int      `json:"workers"`
	Seconds     float64  `json:"seconds"`
	Requests    int64    `json:"requests"`
	Errors      int64    `json:"errors"`
	Gets        int64    `json:"gets"`
	Sets        int64    `json:"sets"`
	Hits        int64    `json:"hits"`
	Misses      int64    `json:"misses"`
	HitRatio    float64  `json:"hit_ratio"`
	AchievedRPS float64  `json:"achieved_rps"`
	Latency     Latency  `json:"latency_us"`
	// PerNode counts responses by the X-Talus-Node that answered them —
	// with a proxying cluster this is the owner, not the entry node, so
	// it doubles as a live check of ring balance.
	PerNode map[string]int64 `json:"per_node,omitempty"`
	// StatusClasses counts responses by status class ("2xx", "4xx", ...).
	StatusClasses map[string]int64 `json:"status_classes"`
}

// Latency is the merged latency distribution in microseconds.
type Latency struct {
	P50  uint64  `json:"p50"`
	P90  uint64  `json:"p90"`
	P99  uint64  `json:"p99"`
	P999 uint64  `json:"p999"`
	Max  uint64  `json:"max"`
	Mean float64 `json:"mean"`
}

// worker is one closed-loop issuer's private state; nothing here is
// shared until the final merge.
type worker struct {
	hist     Hist
	requests int64
	errors   int64
	gets     int64
	sets     int64
	hits     int64
	misses   int64
	perNode  map[string]int64
	statuses [6]int64 // index status/100; 0 = transport error
}

// Runner executes load runs for one Config.
type Runner struct {
	cfg    Config
	client *http.Client
}

// New validates cfg and builds a runner.
func New(cfg Config) (*Runner, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("loadgen: no target nodes")
	}
	if cfg.Tenant == "" {
		return nil, errors.New("loadgen: empty tenant")
	}
	if cfg.Keys < 1 {
		return nil, fmt.Errorf("loadgen: %d keys; need at least 1", cfg.Keys)
	}
	if cfg.Duration <= 0 && cfg.MaxRequests <= 0 {
		return nil, errors.New("loadgen: need a duration or a request bound")
	}
	if cfg.SetFraction < 0 || cfg.SetFraction > 1 {
		return nil, fmt.Errorf("loadgen: set fraction %g outside [0, 1]", cfg.SetFraction)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 64
	}
	if cfg.Pattern == nil {
		cfg.Pattern = &workload.Rand{Lines: cfg.Keys}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Workers * len(cfg.Nodes),
				MaxIdleConnsPerHost: cfg.Workers,
			},
		}
	}
	return &Runner{cfg: cfg, client: client}, nil
}

// Run drives the configured load until the duration elapses, the
// request bound is hit, or ctx is cancelled — whichever comes first —
// and returns the merged report.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	cfg := r.cfg
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	// Read/write choice compares the RNG's top 32 bits against an
	// integer threshold: no floats per request.
	setThresh := uint64(cfg.SetFraction * float64(1<<32))

	value := make([]byte, cfg.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	var issued atomic.Int64 // global request budget when MaxRequests > 0
	workers := make([]*worker, cfg.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{perNode: make(map[string]int64)}
		workers[i] = w
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := hash.NewSplitMix64(cfg.Seed + uint64(id)*0x9E3779B97F4A7C15 + 1)
			pattern := cfg.Pattern.Clone()
			for seq := 0; ; seq++ {
				if ctx.Err() != nil {
					return
				}
				if cfg.MaxRequests > 0 && issued.Add(1) > cfg.MaxRequests {
					return
				}
				key := fmt.Sprintf("k%08d", pattern.Next(rng)%uint64(cfg.Keys))
				node := cfg.Nodes[(id+seq)%len(cfg.Nodes)]
				r.issue(ctx, w, rng, node, key, value, setThresh, cfg.TTLSeconds)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Nodes:         cfg.Nodes,
		Tenant:        cfg.Tenant,
		Workers:       cfg.Workers,
		Seconds:       elapsed.Seconds(),
		PerNode:       make(map[string]int64),
		StatusClasses: make(map[string]int64),
	}
	var hist Hist
	for _, w := range workers {
		hist.Merge(&w.hist)
		rep.Requests += w.requests
		rep.Errors += w.errors
		rep.Gets += w.gets
		rep.Sets += w.sets
		rep.Hits += w.hits
		rep.Misses += w.misses
		for n, c := range w.perNode {
			rep.PerNode[n] += c
		}
		for class, c := range w.statuses {
			if c == 0 {
				continue
			}
			name := "error"
			if class > 0 {
				name = fmt.Sprintf("%dxx", class)
			}
			rep.StatusClasses[name] += c
		}
	}
	if acc := rep.Hits + rep.Misses; acc > 0 {
		rep.HitRatio = float64(rep.Hits) / float64(acc)
	}
	if s := elapsed.Seconds(); s > 0 {
		rep.AchievedRPS = float64(rep.Requests) / s
	}
	rep.Latency = Latency{
		P50:  hist.Quantile(0.50),
		P90:  hist.Quantile(0.90),
		P99:  hist.Quantile(0.99),
		P999: hist.Quantile(0.999),
		Max:  hist.Max(),
		Mean: hist.Mean(),
	}
	return rep, nil
}

// issue sends one request and folds the outcome into w. A request
// counts — toward Requests, its op kind and a status class, all at once
// — only if it got an answer or failed on its own; one the run's
// deadline cancelled in flight counts toward nothing.
func (r *Runner) issue(ctx context.Context, w *worker, rng *hash.SplitMix64, node, key string, value []byte, setThresh uint64, ttl int) {
	url := "http://" + node + "/v1/cache/" + r.cfg.Tenant + "/" + key
	isSet := rng.Next()>>32 < setThresh
	var req *http.Request
	var err error
	if isSet {
		req, err = http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(value))
		if err == nil && ttl > 0 {
			req.Header.Set("X-Talus-TTL", fmt.Sprint(ttl))
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	}
	if err != nil {
		w.errors++
		return
	}
	begin := time.Now()
	resp, err := r.client.Do(req)
	if err != nil && ctx.Err() != nil {
		// A cancelled context at the deadline is the run ending, not a
		// server failure.
		return
	}
	w.requests++
	if isSet {
		w.sets++
	} else {
		w.gets++
	}
	if err != nil {
		w.errors++
		w.statuses[0]++
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.hist.Record(uint64(time.Since(begin) / time.Microsecond))
	w.statuses[resp.StatusCode/100%6]++
	if resp.StatusCode >= 500 {
		w.errors++
	}
	switch resp.Header.Get("X-Talus-Cache") {
	case "hit":
		w.hits++
	case "miss":
		w.misses++
	}
	if n := resp.Header.Get("X-Talus-Node"); n != "" {
		w.perNode[n]++
	}
}
