// Command talus-serve is the HTTP serving front-end: a keyed cache
// service over the adaptive Talus runtime. Clients store and fetch
// bytes by (tenant, key); underneath, every request drives the
// monitor → hull → Talus → allocator control loop, so capacity flows
// between tenants as their measured miss curves evolve — the paper's
// end-to-end system (§VI) with a network in front of it.
//
// Usage:
//
//	talus-serve [-addr :8080] [-mb 8] [-shards n] [-partitions n]
//	            [-tenants a,b,...] [-scheme vantage] [-policy LRU]
//	            [-alloc hill] [-assoc 32] [-epoch n] [-epoch-interval 1s]
//	            [-max-value 1048576] [-record-dir dir] [-seed s]
//	            [-max-bytes n] [-max-tenants n]
//	            [-backend mem] [-backend-latency 0s]
//	            [-weights gold=4,bronze=1] [-control]
//	            [-route host1:p1,host2:p2,...] [-self host:port]
//	            [-vnodes n] [-ring-seed s] [-node-id id]
//	            [-default-ttl 0s]
//
// With -route the node joins a cluster: every member shares the same
// -route list (and -vnodes/-ring-seed), each names itself with -self
// (defaulting to its listen address), and a consistent-hash ring
// assigns every (tenant, key) an owner. Requests arriving at a
// non-owner are forwarded one hop and relayed — any node can serve any
// key, so clients need no routing logic.
//
// The store is a cache bounded by -mb: a value dies when its simulated
// line is evicted. -max-bytes adds a byte cap (writes then pass the
// Talus-managed admission gate); -backend adds a backing tier that
// writes go through to and misses read through, so eviction costs a
// backend read instead of the value.
//
// Routes:
//
//	GET/PUT/DELETE /v1/cache/{tenant}/{key}    keyed bytes (X-Talus-Cache: hit|miss)
//	GET  /v1/stats                             per-tenant counters + allocations + node identity
//	GET  /v1/curves                            live measured + hulled miss curves
//	GET  /v1/cluster                           ring membership, vnode count, per-node key share
//	GET  /v1/control                           control-loop state: churn, epoch budget, weights
//	PUT  /v1/control/tenants/{tenant}          adjust a tenant's weight (needs -control)
//	POST /v1/record                            start/stop trace capture (needs -record-dir)
//
// -weights assigns per-tenant objective weights (the allocator then
// minimizes Σ wᵢ·missesᵢ, so a weight-4 tenant's misses count 4×).
// The loop reconfigures at the one interval -epoch / -epoch-interval
// set; GET /v1/control reports the measured curve churn beside it.
//
// A captured trace replays offline through talus-trace replay (or
// talus.RunAdaptiveTraceFile), closing the loop between served traffic
// and the experiment suite. SIGINT/SIGTERM shut down gracefully:
// in-flight requests drain, recording flushes, the epoch ticker stops.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"talus"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		mb         = flag.Float64("mb", 8, "LLC capacity in MB")
		shards     = flag.Int("shards", 8, "independently locked cache shards")
		partitions = flag.Int("partitions", 0, "logical partitions / max tenants (0 = 8, or the tenant count)")
		tenants    = flag.String("tenants", "", "comma-separated tenant names to pre-register (others register on first use)")
		static     = flag.Bool("static-tenants", false, "serve only the pre-registered -tenants")
		scheme     = flag.String("scheme", "vantage", "partitioning scheme: none, way, set, vantage, futility, ideal")
		policy     = flag.String("policy", "LRU", "replacement policy: LRU, SRRIP, BRRIP, DRRIP, TA-DRRIP, DIP, PDP, Random")
		allocName  = flag.String("alloc", "hill", "epoch allocator: hill, lookahead, fair, optimal")
		assoc      = flag.Int("assoc", 32, "set associativity")
		epoch      = flag.Int64("epoch", 0, "reconfiguration interval in accesses (0 = 2^20)")
		interval   = flag.Duration("epoch-interval", time.Second, "wall-clock reconfiguration interval (0 disables the ticker)")
		maxValue   = flag.Int64("max-value", 1<<20, "maximum value size in bytes")
		recordDir  = flag.String("record-dir", "", "directory POST /v1/record may write traces into (empty disables the endpoint)")
		seed       = flag.Uint64("seed", 42, "deterministic seed for hashes, samplers, monitors")
		maxBytes   = flag.Int64("max-bytes", 0, "cap on total value bytes held, enforced by the admission gate (0 = none: only the -mb line capacity bounds the cache)")
		maxTenants = flag.Int("max-tenants", 0, "cap on tenants ever registered (0 = partition count only)")
		backend    = flag.String("backend", "", "backing tier behind the cache: mem (empty = none)")
		backendLat = flag.Duration("backend-latency", 0, "modeled latency per backend operation")
		weights    = flag.String("weights", "", "per-tenant objective weights, e.g. gold=4,bronze=1")
		control    = flag.Bool("control", false, "enable the mutating control plane (PUT /v1/control/tenants/{tenant})")
		route      = flag.String("route", "", "comma-separated cluster membership (host:port,...); enables thin-proxy mode")
		self       = flag.String("self", "", "this node's own name in -route (default: the -addr, host-completed)")
		vnodes     = flag.Int("vnodes", 0, "virtual nodes per cluster member (0 = the ring default)")
		ringSeed   = flag.Uint64("ring-seed", 0, "consistent-hash ring seed; every node must share it")
		nodeID     = flag.String("node-id", "", "serving-instance id for stats and X-Talus-Node (default: -self, else hostname-pid)")
		defaultTTL = flag.Duration("default-ttl", 0, "lifetime for values written without X-Talus-TTL (0 = keep until evicted)")
	)
	flag.Parse()
	cfg := serveFlags{
		addr: *addr, mb: *mb, shards: *shards, partitions: *partitions,
		tenants: *tenants, static: *static, scheme: *scheme, policy: *policy,
		allocName: *allocName, assoc: *assoc, epoch: *epoch, interval: *interval,
		maxValue: *maxValue, recordDir: *recordDir, seed: *seed,
		maxBytes: *maxBytes, maxTenants: *maxTenants,
		backend: *backend, backendLat: *backendLat,
		weights: *weights, control: *control,
		route: *route, self: *self, vnodes: *vnodes, ringSeed: *ringSeed,
		nodeID: *nodeID, defaultTTL: *defaultTTL,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "talus-serve: %v\n", err)
		os.Exit(1)
	}
}

// serveFlags carries the parsed command line into run.
type serveFlags struct {
	addr       string
	mb         float64
	shards     int
	partitions int
	tenants    string
	static     bool
	scheme     string
	policy     string
	allocName  string
	assoc      int
	epoch      int64
	interval   time.Duration
	maxValue   int64
	recordDir  string
	seed       uint64
	maxBytes   int64
	maxTenants int
	backend    string
	backendLat time.Duration
	weights    string
	control    bool
	route      string
	self       string
	vnodes     int
	ringSeed   uint64
	nodeID     string
	defaultTTL time.Duration
}

func run(cf serveFlags) error {
	allocator, err := talus.AllocatorByName(cf.allocName)
	if err != nil {
		return err
	}
	opts := []talus.Option{
		talus.WithCapacityMB(cf.mb),
		talus.WithShards(cf.shards),
		talus.WithScheme(cf.scheme),
		talus.WithPolicy(cf.policy),
		talus.WithAssoc(cf.assoc),
		talus.WithSeed(cf.seed),
		talus.WithAllocator(allocator),
		talus.WithEpochInterval(cf.interval),
		talus.WithMaxValueBytes(cf.maxValue),
	}
	if cf.maxBytes > 0 {
		opts = append(opts, talus.WithMaxBytes(cf.maxBytes))
	}
	if cf.maxTenants > 0 {
		opts = append(opts, talus.WithMaxTenants(cf.maxTenants))
	}
	switch cf.backend {
	case "":
	case "mem":
		opts = append(opts, talus.WithBackend(talus.NewMemBackend(cf.backendLat)))
	default:
		return fmt.Errorf("unknown -backend %q (valid: mem)", cf.backend)
	}
	if cf.partitions > 0 {
		opts = append(opts, talus.WithPartitions(cf.partitions))
	}
	if names := splitTenants(cf.tenants); len(names) > 0 {
		if cf.static {
			opts = append(opts, talus.WithStaticTenants(names...))
		} else {
			opts = append(opts, talus.WithTenants(names...))
		}
	} else if cf.static {
		return errors.New("-static-tenants needs -tenants")
	}
	if cf.epoch > 0 {
		opts = append(opts, talus.WithAdaptive(talus.AdaptiveConfig{
			EpochAccesses: cf.epoch,
			EpochInterval: cf.interval,
			Allocator:     allocator,
			Seed:          cf.seed,
		}))
	}
	tenantWeights, err := parseWeights(cf.weights)
	if err != nil {
		return err
	}
	for tenant, w := range tenantWeights {
		opts = append(opts, talus.WithTenantWeight(tenant, w))
	}

	// Cluster mode: -route lists the full membership; this node's own
	// name defaults to its listen address (host-completed, since peers
	// cannot dial ":8080").
	var cl *talus.Cluster
	selfName := cf.self
	if cf.route != "" {
		if selfName == "" {
			selfName = cf.addr
			if strings.HasPrefix(selfName, ":") {
				selfName = "127.0.0.1" + selfName
			}
		}
		cl, err = talus.NewCluster(talus.ClusterConfig{
			Self: selfName, Nodes: splitTenants(cf.route), VNodes: cf.vnodes, Seed: cf.ringSeed,
		})
		if err != nil {
			return err
		}
	}
	nodeID := cf.nodeID
	if nodeID == "" {
		nodeID = selfName // empty outside cluster mode: the store derives hostname-pid
	}
	opts = append(opts, talus.WithNodeID(nodeID), talus.WithDefaultTTL(cf.defaultTTL))

	st, err := talus.NewStore(opts...)
	if err != nil {
		return err
	}
	defer st.Close()

	srv := newServer(cf.addr, talus.NewServeHandler(st, talus.ServeConfig{MaxValueBytes: cf.maxValue, RecordDir: cf.recordDir, Control: cf.control, Cluster: cl}))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		tiers := fmt.Sprintf("max-bytes %d, backend %q", cf.maxBytes, cf.backend)
		if cl != nil {
			tiers += fmt.Sprintf(", cluster %s of %d nodes", selfName, len(cl.Ring().Nodes()))
		}
		log.Printf("talus-serve: listening on %s (%.1f MB, %d shards, %d partitions, %s/%s, alloc %s, %s)",
			cf.addr, cf.mb, cf.shards, st.Cache().NumLogical(), cf.scheme, cf.policy, cf.allocName, tiers)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // ListenAndServe failed before shutdown (e.g. bad addr)
	case <-ctx.Done():
	}
	log.Printf("talus-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	for _, ts := range st.StatsAll() {
		log.Printf("talus-serve: tenant %s: %d gets, %d sets, hit ratio %.3f, %.2f MB allocated",
			ts.Tenant, ts.Gets, ts.Sets, ts.HitRatio, talus.LinesToMB(float64(ts.AllocLines)))
	}
	return nil
}

// Connection deadlines. Without them a client that stalls mid-body,
// never reads its response, or parks a keep-alive connection pins a
// goroutine and a socket for as long as it likes.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second // the whole request, body included
	writeTimeout      = 30 * time.Second // from the end of the headers to the last response byte
	idleTimeout       = 2 * time.Minute  // a keep-alive connection between requests
)

// newServer wraps h in an http.Server with every connection deadline
// set.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// parseWeights parses the -weights list ("gold=4,bronze=1") into a
// tenant → weight map.
func parseWeights(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		if pair = strings.TrimSpace(pair); pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("-weights entry %q: want tenant=weight", pair)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-weights entry %q: bad weight", pair)
		}
		out[name] = w
	}
	return out, nil
}

// splitTenants parses the -tenants list, tolerating stray commas.
func splitTenants(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}
