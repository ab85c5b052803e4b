// Functional-options construction: the single public entry point for
// building the serving stack: self-describing options with centrally
// validated defaults, so the zero-option call
//
//	ac, err := talus.New()
//
// yields a working adaptive sharded cache — the paper's 8-core CMP
// shape (8 MB LLC, 8 shards, 8 partitions, vantage partitioning over
// LRU, hill climbing on hulls every 2^20 accesses) — and every option
// adjusts exactly one knob. NewStore builds the keyed Get/Set layer
// over the same options.
package talus

import (
	"fmt"
	"net/http"
	"time"

	"talus/internal/cluster"
	"talus/internal/serve"
	"talus/internal/sim"
	"talus/internal/store"
)

// options accumulates the builder's knobs. Later options win; defaults
// fill in whatever was left unset, and build validates the result
// centrally so every constructor path shares one set of error messages.
type options struct {
	capacityLines int64
	scheme        string
	policy        string
	assoc         int
	shards        int
	partitions    int
	margin        float64
	marginSet     bool
	acfg          AdaptiveConfig

	// Store-only knobs (ignored by New).
	tenants       []string
	weights       map[string]float64
	lineBounds    map[string]store.LineBounds
	staticTenants bool
	maxValueBytes int64
	maxBytes      int64
	backend       store.Backend
	maxTenants    int
	defaultTTL    time.Duration
	nodeID        string
}

// Option configures New and NewStore.
type Option func(*options)

// WithCapacity sets the cache capacity in 64-byte lines.
func WithCapacity(lines int64) Option { return func(o *options) { o.capacityLines = lines } }

// WithCapacityMB sets the cache capacity in megabytes.
func WithCapacityMB(mb float64) Option {
	return func(o *options) { o.capacityLines = int64(MBToLines(mb)) }
}

// WithScheme selects the partitioning scheme: "none", "way", "set",
// "vantage" (default), "futility", or "ideal".
func WithScheme(scheme string) Option { return func(o *options) { o.scheme = scheme } }

// WithPolicy selects the replacement policy: "LRU" (default), "SRRIP",
// "BRRIP", "DRRIP", "TA-DRRIP", "DIP", "PDP", or "Random".
func WithPolicy(policy string) Option { return func(o *options) { o.policy = policy } }

// WithShards sets how many independently locked shards stripe the
// cache; concurrency scales with shards, contents stay deterministic
// for a given configuration.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

// WithPartitions sets the number of logical partitions (tenants the
// serving layer can host; apps a simulation can interleave).
func WithPartitions(n int) Option { return func(o *options) { o.partitions = n } }

// WithAssoc sets the set-associativity of each shard's array.
func WithAssoc(ways int) Option { return func(o *options) { o.assoc = ways } }

// WithMargin sets the Talus sampling-rate safety margin (the paper's
// §VI-B δ; default DefaultMargin = 5%). Negative disables it.
func WithMargin(margin float64) Option {
	return func(o *options) {
		o.marginSet = true
		o.margin = max(margin, 0)
	}
}

// WithSeed seeds the whole stack (shard hashes, samplers, monitors)
// deterministically.
func WithSeed(seed uint64) Option { return func(o *options) { o.acfg.Seed = seed } }

// WithAdaptive replaces the whole control-loop configuration (epoch
// length, wall-clock interval, allocator, seed, weights, line bounds).
// It overrides every earlier control-loop option — WithSeed,
// WithAllocator, WithEpochInterval and WithWeights — and is overridden
// field-by-field by later ones.
func WithAdaptive(cfg AdaptiveConfig) Option { return func(o *options) { o.acfg = cfg } }

// WithAllocator sets the epoch allocation policy (default
// HillClimbAllocator — optimal on hulls, the paper's point).
func WithAllocator(a Allocator) Option { return func(o *options) { o.acfg.Allocator = a } }

// WithEpochInterval adds a wall-clock epoch trigger alongside the
// access-count one, so lightly loaded partitions still reconfigure on
// time. Caches built with it must be Closed to stop the ticker.
func WithEpochInterval(d time.Duration) Option {
	return func(o *options) { o.acfg.EpochInterval = d }
}

// WithWeights sets per-partition objective weights for the allocator
// (one per partition, in partition order): each epoch minimizes
// Σ wᵢ·missesᵢ instead of raw misses, so a weight-4 partition's misses
// count 4× and it attracts capacity until its weighted marginal gain
// drops to its neighbors'. Uniform weights (or none) reproduce the
// unweighted allocation exactly. For tenant-name weights at the store
// layer use WithTenantWeight.
func WithWeights(w ...float64) Option { return func(o *options) { o.acfg.Weights = w } }

// WithTenantWeight sets the named tenant's objective weight (NewStore
// only; see WithWeights for semantics). The weight attaches when the
// tenant claims its partition — at build for pre-declared tenants, at
// first request for auto-registered ones — and can be adjusted at run
// time with Store.SetTenantWeight or PUT /v1/control/tenants/{tenant}.
func WithTenantWeight(tenant string, w float64) Option {
	return func(o *options) {
		if o.weights == nil {
			o.weights = make(map[string]float64)
		}
		o.weights[tenant] = w
	}
}

// WithTenantLines bounds the named tenant's allocation to [min, max]
// cache lines (NewStore only): the floor is a capacity guarantee, the
// cap a ceiling no amount of demand exceeds. max 0 means uncapped.
func WithTenantLines(tenant string, min, max int64) Option {
	return func(o *options) {
		if o.lineBounds == nil {
			o.lineBounds = make(map[string]store.LineBounds)
		}
		o.lineBounds[tenant] = store.LineBounds{Min: min, Max: max}
	}
}

// WithTenants pre-registers tenant names onto the first partitions
// (NewStore only). Without WithPartitions, the default partition count
// grows to fit them but never shrinks below it — unnamed tenants can
// still register on first use.
func WithTenants(names ...string) Option { return func(o *options) { o.tenants = names } }

// WithStaticTenants pre-registers names and disables auto-registration:
// requests naming any other tenant are refused, and (without
// WithPartitions) the cache is built with exactly len(names) partitions
// (NewStore only).
func WithStaticTenants(names ...string) Option {
	return func(o *options) {
		o.tenants = names
		o.staticTenants = true
	}
}

// WithMaxValueBytes caps stored value sizes (NewStore only; 0 means
// unlimited at the store layer — the HTTP front-end still enforces its
// own body limit).
func WithMaxValueBytes(n int64) Option { return func(o *options) { o.maxValueBytes = n } }

// WithMaxBytes caps the total value bytes the store holds across all
// tenants (NewStore only): writes pass a hard reservation check and, in
// front of it, a Talus-managed admission gate — the paper's optimal
// bypassing (Eq. 6) applied to value admission, refreshed from each
// tenant's live miss curve. 0 (the default) sets no byte cap; the line
// capacity (WithCapacityMB) bounds the store either way, because an
// evicted line releases its values.
func WithMaxBytes(n int64) Option { return func(o *options) { o.maxBytes = n } }

// WithBackend installs the backing tier behind the cache (NewStore
// only): Sets write through to it and a Get whose value was evicted or
// never admitted reads through it and re-admits, making the store a
// read-through cache: eviction costs a backend read, not the value.
// Without one an evicted value is lost — a caller who wants nothing
// ever lost passes WithBackend(NewMemBackend(0)), the in-memory
// reference tier (its argument is a modeled latency), or brings any
// Backend implementation.
func WithBackend(b Backend) Option { return func(o *options) { o.backend = b } }

// WithDefaultTTL gives every value written without an explicit TTL a
// store-wide lifetime (NewStore only): Gets past the deadline behave
// as real misses and release the value's bytes. Per-entry TTLs
// (Store.SetTTL, or the HTTP X-Talus-TTL header) override it in either
// direction. 0 (the default) keeps values until evicted or deleted.
func WithDefaultTTL(d time.Duration) Option { return func(o *options) { o.defaultTTL = d } }

// WithNodeID names this serving instance (NewStore only): the ID
// surfaces in /v1/stats' node block, in the X-Talus-Node response
// header, and in load reports' per-node attribution. In a cluster it
// should be the node's ring name (host:port). Empty derives
// "<hostname>-<pid>".
func WithNodeID(id string) Option { return func(o *options) { o.nodeID = id } }

// WithMaxTenants caps how many tenants may ever register — pre-declared
// plus auto-registered — so an open HTTP front-end cannot be made to
// mint a tenant per request (NewStore only). Exceeding the cap returns
// ErrTenantCapacity. 0 (the default) bounds tenants only by the
// partition count.
func WithMaxTenants(n int) Option { return func(o *options) { o.maxTenants = n } }

// build applies opts over the defaults and validates the result.
func build(opts []Option) (*options, error) {
	o := &options{
		capacityLines: int64(MBToLines(sim.CoresMP * sim.LLCPerCoreMB)),
		scheme:        "vantage",
		policy:        "LRU",
		assoc:         sim.DefaultAssoc,
		shards:        sim.CoresMP,
	}
	for _, opt := range opts {
		opt(o)
	}
	if o.partitions == 0 {
		switch {
		case o.staticTenants:
			// A closed tenant set needs exactly its own partitions.
			o.partitions = len(o.tenants)
		case len(o.tenants) > sim.CoresMP:
			// Open registration: the default grows to fit the pre-declared
			// tenants but never shrinks below it, so later tenants can
			// still register on first use.
			o.partitions = len(o.tenants)
		default:
			o.partitions = sim.CoresMP
		}
	}
	if !o.marginSet {
		o.margin = DefaultMargin
	}
	switch {
	case o.capacityLines <= 0:
		return nil, fmt.Errorf("talus: capacity %d lines; WithCapacity/WithCapacityMB need a positive size", o.capacityLines)
	case o.shards < 1:
		return nil, fmt.Errorf("talus: %d shards; WithShards needs at least 1", o.shards)
	case o.partitions < 1:
		return nil, fmt.Errorf("talus: %d partitions; WithPartitions needs at least 1", o.partitions)
	case o.assoc < 1:
		return nil, fmt.Errorf("talus: associativity %d; WithAssoc needs at least 1 way", o.assoc)
	case len(o.tenants) > o.partitions:
		return nil, fmt.Errorf("talus: %d tenants for %d partitions; raise WithPartitions", len(o.tenants), o.partitions)
	}
	return o, nil
}

// New constructs the adaptive serving stack from functional options: a
// sharded LLC, the Talus shadow-partition runtime over it, and the
// epoch-driven monitor → hull → allocator control loop over that. With
// zero options it is the paper's 8-core CMP shape and works as is; see
// the With* options for each knob. Scheme and policy names are
// validated on construction (errors enumerate the valid names). When
// built with WithEpochInterval, Close the cache to stop its ticker.
func New(opts ...Option) (*AdaptiveCache, error) {
	o, err := build(opts)
	if err != nil {
		return nil, err
	}
	return sim.BuildAdaptiveCache(o.scheme, o.capacityLines, o.assoc, o.shards, o.partitions,
		o.policy, o.margin, o.acfg)
}

// Store is the keyed serving layer: Get/Set/Delete over (tenant, key)
// pairs mapped onto the adaptive cache's partitions and line addresses,
// with real value storage, per-tenant Stats, live miss Curves, and an
// optional traffic Recorder. See NewStore.
type Store = store.Store

// TenantStats reports one tenant's serving counters.
type TenantStats = store.TenantStats

// Backend is the pluggable backing tier behind the store: the
// "database" the cache reads through on value misses and writes
// through on Sets. See WithBackend.
type Backend = store.Backend

// MemBackend is the in-memory reference Backend with modeled
// per-operation latency. See NewMemBackend.
type MemBackend = store.MemBackend

// NewMemBackend builds an empty in-memory backend that sleeps latency
// on every operation (0 disables the delay).
func NewMemBackend(latency time.Duration) *MemBackend {
	return store.NewMemBackend(latency)
}

// Store boundary errors (see the internal/store package docs).
var (
	ErrEmptyTenant      = store.ErrEmptyTenant
	ErrEmptyKey         = store.ErrEmptyKey
	ErrUnknownTenant    = store.ErrUnknownTenant
	ErrTenantCapacity   = store.ErrTenantCapacity
	ErrNotFound         = store.ErrNotFound
	ErrValueTooLarge    = store.ErrValueTooLarge
	ErrBackend          = store.ErrBackend
	ErrClosed           = store.ErrClosed
	ErrBadTTL           = store.ErrBadTTL
	ErrInfeasibleBounds = store.ErrInfeasibleBounds
)

// NewStore constructs the keyed store over a cache built from the same
// options New takes, plus the store-specific ones (WithTenants,
// WithStaticTenants, WithMaxValueBytes, WithMaxBytes, WithBackend,
// WithMaxTenants). Tenants map to logical partitions (first come,
// first served unless static); keys hash to line addresses; every
// request drives the adaptive control loop. The store is a cache
// bounded by its line capacity: a value dies with its evicted line
// (and is refetched through the Backend when there is one). Close the
// store when done (stops recording and the epoch ticker).
func NewStore(opts ...Option) (*Store, error) {
	o, err := build(opts)
	if err != nil {
		return nil, err
	}
	ac, err := sim.BuildAdaptiveCache(o.scheme, o.capacityLines, o.assoc, o.shards, o.partitions,
		o.policy, o.margin, o.acfg)
	if err != nil {
		return nil, err
	}
	return store.New(ac, store.Config{
		Tenants:       o.tenants,
		Weights:       o.weights,
		LineBounds:    o.lineBounds,
		Static:        o.staticTenants,
		MaxValueBytes: o.maxValueBytes,
		MaxBytes:      o.maxBytes,
		Backend:       o.backend,
		MaxTenants:    o.maxTenants,
		DefaultTTL:    o.defaultTTL,
		NodeID:        o.nodeID,
	})
}

// ServeConfig parameterizes the HTTP front-end handler: the PUT body
// cap (0 → 1 MiB), the directory trace captures may be written into
// (empty keeps POST /v1/record disabled — it writes server-side files,
// so enabling it is an explicit operator decision), and the Control
// gate for the mutating control plane (false keeps
// PUT /v1/control/tenants/{tenant} disabled; the read-only
// GET /v1/control is always served).
type ServeConfig = serve.Config

// NewServeHandler returns the stdlib HTTP front-end over st — the same
// handler cmd/talus-serve mounts (GET/PUT/DELETE /v1/cache/{tenant}/{key},
// /v1/stats, /v1/curves, /v1/cluster, /v1/control, /v1/record) — for
// embedding in an existing server.
func NewServeHandler(st *Store, cfg ServeConfig) http.Handler {
	return serve.NewHandler(st, cfg)
}

// NodeStats identifies one serving instance: its node ID, process, start
// time, and GOMAXPROCS. Reported by Store.Node, /v1/stats, /v1/cluster.
type NodeStats = store.NodeStats

// Cluster is the distributed serving tier's membership view: a
// deterministic consistent-hash ring plus the node-to-node HTTP client.
// Pass one to ServeConfig.Cluster to turn a handler into a thin proxy
// that forwards requests it does not own. See NewCluster.
type Cluster = cluster.Cluster

// ClusterConfig parameterizes NewCluster: this node's own name, the
// full membership list, virtual-node count, ring seed, and the
// forwarding client's timeout/retry bounds. Every node (and any
// ring-aware client) must share Nodes, VNodes, and Seed — ownership is
// computed independently on each, with no coordination.
type ClusterConfig = cluster.Config

// NewCluster validates cfg and builds the cluster view.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewRing builds just the consistent-hash ring — for clients that want
// to route requests to their owners directly instead of paying the
// proxy hop. 0 vnodes selects ClusterDefaultVNodes.
func NewRing(nodes []string, vnodes int, seed uint64) (*Ring, error) {
	return cluster.NewRing(nodes, vnodes, seed)
}

// Ring is the immutable consistent-hash ring. See NewRing.
type Ring = cluster.Ring

// ClusterDefaultVNodes is the default virtual-node count per member.
const ClusterDefaultVNodes = cluster.DefaultVNodes
