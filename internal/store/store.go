package store

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"talus/internal/adaptive"
	"talus/internal/cache"
	"talus/internal/curve"
	"talus/internal/hull"
	"talus/internal/trace"
)

// Typed boundary errors. Handlers map these onto protocol status codes
// (the HTTP front-end turns ErrNotFound into 404, ErrValueTooLarge into
// 413, the rest of the request errors into 400).
var (
	// ErrEmptyTenant rejects requests with an empty tenant name.
	ErrEmptyTenant = errors.New("store: empty tenant")
	// ErrEmptyKey rejects requests with an empty key.
	ErrEmptyKey = errors.New("store: empty key")
	// ErrUnknownTenant reports a tenant that is not registered (and was
	// not auto-registered: lookups like Stats and Delete never register).
	ErrUnknownTenant = errors.New("store: unknown tenant")
	// ErrTenantCapacity reports that every logical partition already has
	// a tenant.
	ErrTenantCapacity = errors.New("store: all partitions have tenants")
	// ErrNotFound reports a key with no stored value.
	ErrNotFound = errors.New("store: key not found")
	// ErrValueTooLarge rejects values over Config.MaxValueBytes.
	ErrValueTooLarge = errors.New("store: value too large")
	// ErrNotRecording reports StopRecording without StartRecording.
	ErrNotRecording = errors.New("store: not recording")
	// ErrRecording reports StartRecording while already recording.
	ErrRecording = errors.New("store: already recording")
	// ErrClosed reports SetRecorder/StartRecording after Close.
	ErrClosed = errors.New("store: closed")
	// ErrNoEviction reports a cache stack that cannot deliver eviction
	// notifications: without them evicted lines would strand the values
	// hanging off them.
	ErrNoEviction = errors.New("store: cache stack does not support eviction notification")
	// ErrBadTTL rejects a negative per-entry TTL.
	ErrBadTTL = errors.New("store: negative ttl")
	// ErrInfeasibleBounds refuses a registration whose configured line
	// floor does not fit beside the floors already claimed; it wraps the
	// adaptive layer's reason. The tenant is not registered and its
	// partition stays free and unconfigured.
	ErrInfeasibleBounds = errors.New("store: tenant line bounds do not fit")
)

// addrMask keeps the 48 address bits hashKey produces; bits 48+ carry
// the per-partition feeder offsets (adaptive.AppSpace) the datapath ORs on.
const addrMask = 1<<48 - 1

// Recorder consumes one record per cache access: the record hook the
// serving front-end uses to capture live traffic. *trace.Writer
// implements it. Appends are serialized by the store; implementations
// need not be goroutine-safe.
type Recorder interface {
	Append(p int, addr uint64) error
}

// Config parameterizes New.
type Config struct {
	// Tenants pre-registers tenant names onto partitions 0..len-1.
	Tenants []string
	// Static, when true, disables auto-registration: only pre-declared
	// tenants are served, and requests naming others fail with
	// ErrUnknownTenant.
	Static bool
	// MaxValueBytes caps Set value sizes; 0 means unlimited.
	MaxValueBytes int64
	// MaxBytes bounds the total value bytes held across all tenants
	// (0 = no byte cap; the line capacity still bounds the key count).
	// Under a cap, a value that would overdraw it is not kept.
	MaxBytes int64
	// Backend, when non-nil, is the backing tier: Sets write through to
	// it and a Get whose value is gone (evicted, expired or never
	// admitted) reads through and re-admits. Without one such a value
	// is lost.
	Backend Backend
	// MaxTenants caps how many tenants may ever register (pre-declared
	// plus auto-registered); 0 bounds them only by the partition count.
	MaxTenants int
	// Weights gives tenants objective weights in the allocator's Request
	// (see alloc.Request.Weights): a weight-4 tenant's saved miss counts
	// four times a weight-1 tenant's. Applied when the named tenant
	// registers (at New for pre-declared tenants, at first Set for
	// auto-registered ones); tenants not named weigh 1. Adjustable at
	// runtime via SetTenantWeight.
	Weights map[string]float64
	// LineBounds gives tenants per-partition allocation floors and caps
	// in cache lines (see alloc.Request.MinLines/MaxLines), applied like
	// Weights when the named tenant registers. A zero Max means
	// unbounded.
	LineBounds map[string]LineBounds
	// DefaultTTL is the expiry applied to Sets that do not carry their
	// own TTL (see SetTTL); 0 means values never expire by time. Expiry
	// is lazy: an expired value is released on the Get that discovers
	// it, and its simulated line is invalidated like a Delete's.
	DefaultTTL time.Duration
	// NodeID names this store instance for cluster attribution
	// (/v1/stats node block, X-Talus-Node). Empty derives
	// "<hostname>-<pid>".
	NodeID string
}

// NodeStats identifies this store instance: the node block cluster
// clients and the load harness use to attribute traffic per node.
type NodeStats struct {
	ID         string    `json:"id"`
	PID        int       `json:"pid"`
	StartTime  time.Time `json:"start_time"`
	GoMaxProcs int       `json:"gomaxprocs"`
}

// LineBounds is one tenant's allocation floor and cap in cache lines.
type LineBounds struct {
	Min int64 `json:"min"`
	Max int64 `json:"max"` // 0 = unbounded
}

// TenantStats reports one tenant's serving counters. CacheHits and
// CacheMisses count the simulated cache's outcomes over Get and Set
// accesses; Keys and Bytes describe the stored values.
type TenantStats struct {
	Tenant      string  `json:"tenant"`
	Partition   int     `json:"partition"`
	Gets        int64   `json:"gets"`
	Sets        int64   `json:"sets"`
	Deletes     int64   `json:"deletes"`
	CacheHits   int64   `json:"cacheHits"`
	CacheMisses int64   `json:"cacheMisses"`
	HitRatio    float64 `json:"hitRatio"` // CacheHits / (CacheHits+CacheMisses)
	Keys        int64   `json:"keys"`
	Bytes       int64   `json:"bytes"`
	AllocLines  int64   `json:"alloc_lines"` // current partition allocation

	// Expirations counts values released by per-entry TTL expiry
	// (discovered lazily on Get; zero when no TTLs are in use).
	Expirations int64 `json:"expirations"`

	Evictions   int64 `json:"evictions"`   // values released by line eviction
	AdmitDrops  int64 `json:"admitDrops"`  // values refused by the byte cap
	BackendGets int64 `json:"backendGets"` // read-through fetches attempted
	BackendSets int64 `json:"backendSets"` // write-through stores performed
}

// entry is one resident value, hanging off the simulated line that
// admitted it. Fields are read and written under the tenant's mu.
type entry struct {
	key      string
	val      []byte
	deadline int64  // expiry, unix nanos; 0 = never
	next     *entry // another key hashed to the same 48-bit line (odds 2^-48 a pair)
}

// tenant is one registered tenant: a logical partition, the values
// resident on its lines, and its counters.
type tenant struct {
	name  string
	part  int
	space uint64 // adaptive.AppSpace(part), OR-ed onto every address

	mu    sync.RWMutex
	lines map[uint64]*entry // 48-bit line addr → the values on that line
	keys  int64             // entries across all lines
	bytes int64             // their value bytes

	gets, sets, deletes atomic.Int64
	hits, misses        atomic.Int64

	evictions, admitDrops, backendGets, backendSets atomic.Int64
	expirations                                     atomic.Int64
}

// Store is the keyed serving layer. Construct with New (or the public
// builder talus.NewStore).
type Store struct {
	ac  *adaptive.Cache
	cfg Config

	maxBytes   int64   // global value-byte bound; 0 = none
	backend    Backend // backing tier; nil = none
	maxTenants int     // registration cap; 0 = partition count only
	defaultTTL time.Duration

	node NodeStats        // this instance's identity (cluster attribution)
	now  func() time.Time // clock; replaceable for TTL tests (SetNow)

	bytesTotal atomic.Int64 // value bytes across all tenants

	mu      sync.RWMutex
	tenants map[string]*tenant
	// byPart maps partition index → tenant (nil while unclaimed). Fixed
	// length; written under mu, but read without it by the eviction hook
	// (see onEvict), hence the atomic slots.
	byPart []atomic.Pointer[tenant]

	recording atomic.Bool // fast-path gate; truth lives under recMu
	recMu     sync.Mutex
	rec       Recorder
	recW      *trace.Writer // non-nil only for file-backed recording
	recF      *os.File
	recErr    error
	closed    bool // Close ran; recorder installation is refused
}

// New builds a Store over an adaptive cache, registering cfg.Tenants
// onto the first partitions. The cache's logical partition count bounds
// the tenant count. Values live and die with their simulated lines, so
// the cache stack must support eviction notification (every stack
// adaptive.Build builds does); otherwise New fails with
// ErrNoEviction. Every Get and Set takes the owning shard's lock once
// for its cache access.
func New(ac *adaptive.Cache, cfg Config) (*Store, error) {
	if len(cfg.Tenants) > ac.NumLogical() {
		return nil, fmt.Errorf("%w: %d tenants for %d partitions", ErrTenantCapacity, len(cfg.Tenants), ac.NumLogical())
	}
	if cfg.MaxTenants > 0 && len(cfg.Tenants) > cfg.MaxTenants {
		return nil, fmt.Errorf("%w: %d tenants pre-declared with MaxTenants %d", ErrTenantCapacity, len(cfg.Tenants), cfg.MaxTenants)
	}
	s := &Store{
		ac:         ac,
		cfg:        cfg,
		maxBytes:   cfg.MaxBytes,
		backend:    cfg.Backend,
		maxTenants: cfg.MaxTenants,
		defaultTTL: cfg.DefaultTTL,
		now:        time.Now,
		tenants:    make(map[string]*tenant, ac.NumLogical()),
		byPart:     make([]atomic.Pointer[tenant], ac.NumLogical()),
	}
	if cfg.DefaultTTL < 0 {
		return nil, fmt.Errorf("%w: default ttl %s", ErrBadTTL, cfg.DefaultTTL)
	}
	s.node = NodeStats{ID: cfg.NodeID, PID: os.Getpid(), StartTime: time.Now(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	if s.node.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "node"
		}
		s.node.ID = fmt.Sprintf("%s-%d", host, s.node.PID)
	}
	// Validate the per-tenant control settings up front: a bad weight
	// must fail construction, not the unlucky auto-registering Set that
	// would otherwise trip over it later.
	for name, w := range cfg.Weights {
		if name == "" {
			return nil, fmt.Errorf("%w: weight for empty tenant name", ErrEmptyTenant)
		}
		if w < 0 || w != w || w-w != 0 { // negative, NaN, or ±Inf
			return nil, fmt.Errorf("store: weight %g for tenant %q (need finite, non-negative)", w, name)
		}
	}
	for name, b := range cfg.LineBounds {
		if name == "" {
			return nil, fmt.Errorf("%w: line bounds for empty tenant name", ErrEmptyTenant)
		}
		if b.Min < 0 || b.Max < 0 || (b.Max > 0 && b.Max < b.Min) {
			return nil, fmt.Errorf("store: bad line bounds [%d, %d] for tenant %q", b.Min, b.Max, name)
		}
	}
	if !ac.SetEvictHook(s.onEvict) {
		return nil, ErrNoEviction
	}
	for _, name := range cfg.Tenants {
		if _, err := s.register(name); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MaxBytes returns the configured global value-byte bound (0 = none).
func (s *Store) MaxBytes() int64 { return s.maxBytes }

// Bytes returns the value bytes currently held across all tenants. It
// never exceeds MaxBytes (when one is set).
func (s *Store) Bytes() int64 { return s.bytesTotal.Load() }

// Backend returns the configured backing tier (nil when none).
func (s *Store) Backend() Backend { return s.backend }

// Node returns this instance's identity block: the id, start time, and
// GOMAXPROCS that /v1/stats serves and cluster clients use to
// attribute traffic per node.
func (s *Store) Node() NodeStats { return s.node }

// SetNow replaces the store's clock. A test hook for TTL expiry — call
// it before serving traffic; it is not synchronized with the datapath.
func (s *Store) SetNow(now func() time.Time) { s.now = now }

// onEvict is the cache stack's eviction hook: line (part, addr) was
// evicted, so every value stored on that line dies with it — the next
// Get for those keys is a true miss (served through the Backend when
// one is configured). Runs on the accessing goroutine with a shard
// lock held, so it only touches store/tenant state, never the cache —
// and never s.mu: register holds s.mu while it takes the adaptive
// cache's epoch lock, and the epoch step takes shard locks under that,
// so s.mu below a shard lock would close a three-way cycle.
func (s *Store) onEvict(part int, addr uint64) {
	if part < 0 || part >= len(s.byPart) {
		return
	}
	t := s.byPart[part].Load()
	if t == nil {
		return
	}
	line := addr & addrMask // strip the feeder's partition-space bits
	t.mu.Lock()
	for e := t.lines[line]; e != nil; e = e.next {
		s.release(t, line, e.key)
		t.evictions.Add(1)
	}
	t.mu.Unlock()
}

// find returns key's entry on line addr, or nil. Caller holds t.mu.
func (t *tenant) find(addr uint64, key string) *entry {
	e := t.lines[addr]
	for e != nil && e.key != key {
		e = e.next
	}
	return e
}

// release unlinks key's entry from line addr and returns its bytes to
// the books: the one way a value leaves the store, whatever ended its
// residency (eviction, expiry, Delete, a byte-cap refusal). Reports
// whether there was one. Caller holds t.mu.
func (s *Store) release(t *tenant, addr uint64, key string) bool {
	var prev *entry
	e := t.lines[addr]
	for e != nil && e.key != key {
		prev, e = e, e.next
	}
	switch {
	case e == nil:
		return false
	case prev != nil:
		prev.next = e.next
	case e.next != nil:
		t.lines[addr] = e.next
	default:
		delete(t.lines, addr)
	}
	t.keys--
	t.bytes -= int64(len(e.val))
	s.bytesTotal.Add(-int64(len(e.val)))
	return true
}

// hashKey maps a key to its 48-bit line address by FNV-1a: stable
// across processes and platforms, so traces recorded here replay
// anywhere. Bits 48–63 stay clear for the feeders' partition offsets.
func hashKey(key string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h & (1<<48 - 1)
}

// register claims the next free partition for name. Caller must NOT
// hold s.mu.
func (s *Store) register(name string) (*tenant, error) {
	if name == "" {
		return nil, ErrEmptyTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t, nil // raced with another registration of the same name
	}
	if s.maxTenants > 0 && len(s.tenants) >= s.maxTenants {
		return nil, fmt.Errorf("%w: tenant cap %d reached", ErrTenantCapacity, s.maxTenants)
	}
	part := -1
	for p := range s.byPart {
		if s.byPart[p].Load() == nil {
			part = p
			break
		}
	}
	if part < 0 {
		return nil, fmt.Errorf("%w (%d)", ErrTenantCapacity, len(s.byPart))
	}
	t := &tenant{
		name: name, part: part, space: adaptive.AppSpace(part),
		lines: make(map[uint64]*entry),
	}
	// Thread the tenant's configured control settings into the claimed
	// partition; a tenant without entries leaves the allocator's Request
	// untouched (uniform objective). Bounds go first: the floor check is
	// the one step that can refuse at this point (it depends on who
	// registered before), and a refusal must leave the free partition as
	// it was for the next tenant. Weights were validated at New.
	if b, ok := s.cfg.LineBounds[name]; ok {
		if err := s.ac.SetPartitionLines(part, b.Min, b.Max); err != nil {
			return nil, fmt.Errorf("%w: tenant %q: %w", ErrInfeasibleBounds, name, err)
		}
	}
	if w, ok := s.cfg.Weights[name]; ok {
		if err := s.ac.SetWeight(part, w); err != nil {
			return nil, err
		}
	}
	s.tenants[name] = t
	s.byPart[part].Store(t)
	return t, nil
}

// access drives one request's cache access: the record hook (addr is
// the raw 48-bit key address, the trace format), then the adaptive
// datapath in the tenant's partition space, then the tenant's outcome
// counters. Every Get and Set takes exactly this path, once.
func (s *Store) access(t *tenant, addr uint64) bool {
	if s.recording.Load() {
		s.recMu.Lock()
		if s.rec != nil {
			if err := s.rec.Append(t.part, addr); err != nil && s.recErr == nil {
				s.recErr = err
			}
		}
		s.recMu.Unlock()
	}
	hit := s.ac.Access(addr|t.space, t.part)
	if hit {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return hit
}

// resolve returns the tenant for name, auto-registering it when allowed.
func (s *Store) resolve(name string, autoRegister bool) (*tenant, error) {
	if name == "" {
		return nil, ErrEmptyTenant
	}
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	if !autoRegister || s.cfg.Static {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return s.register(name)
}

// Get looks key up for tenant. It always performs one cache access
// (misses shape the miss curve exactly like a real cache's fill
// traffic) and returns the stored bytes, or ErrNotFound when the key
// holds no value. hit reports that the bytes came from the value
// resident on the key's line — false for ErrNotFound and for a read
// served through the Backend. (TenantStats.CacheHits counts the line's
// outcome, which the control loop consumes; the two agree except where
// a line is resident without this key's value.) A pure lookup never
// registers a tenant: naming an unknown one fails with ErrUnknownTenant
// (tenants are minted by Set). A value whose TTL has passed is expired
// lazily here: its bytes are released, its simulated line invalidated
// (a dead key must not linger as phantom residency), and the Get
// proceeds as a miss. With a Backend, a miss (evicted, expired, or
// refused by the byte cap) reads through the Backend and re-admits
// under the same cap. The returned slice is shared — callers must not
// modify it.
func (s *Store) Get(tenantName, key string) (value []byte, hit bool, err error) {
	if key == "" {
		return nil, false, ErrEmptyKey
	}
	t, err := s.resolve(tenantName, false)
	if err != nil {
		return nil, false, err
	}
	t.gets.Add(1)
	addr := hashKey(key)
	s.access(t, addr)
	value, ok, expired := s.lookup(t, addr, key)
	if expired {
		s.expireValue(t, key, addr)
		// Re-read: a Set racing the expiry may have landed a fresh value
		// (with a fresh deadline) that must be served, not swallowed.
		value, ok, _ = s.lookup(t, addr, key)
	}
	if ok {
		return value, true, nil
	}
	if s.backend == nil {
		return nil, false, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	// Read through: the value is gone locally (evicted, expired, refused
	// by the byte cap, or never written here) — fetch it from the backing
	// tier and re-admit it, paying the modeled backend cost this miss
	// represents. The re-admitted copy starts a fresh DefaultTTL (the
	// backend does not remember per-entry TTLs).
	t.backendGets.Add(1)
	v, berr := s.backend.Get(t.name, key)
	if berr != nil {
		if errors.Is(berr, ErrNotFound) {
			return nil, false, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return nil, false, fmt.Errorf("%w: %v", ErrBackend, berr)
	}
	s.admitValue(t, key, addr, v, s.deadlineFor(0))
	return v, false, nil
}

// lookup reads key's resident value off line addr, reporting whether
// its TTL has passed.
func (s *Store) lookup(t *tenant, addr uint64, key string) (value []byte, ok, expired bool) {
	t.mu.RLock()
	if e := t.find(addr, key); e != nil {
		value, ok = e.val, true
		expired = e.deadline != 0 && e.deadline <= s.now().UnixNano()
	}
	t.mu.RUnlock()
	return value, ok, expired
}

// deadlineFor converts a per-entry TTL into an absolute expiry
// deadline in unix nanos: 0 selects the configured DefaultTTL, and a
// zero result means "never expires".
func (s *Store) deadlineFor(ttl time.Duration) int64 {
	if ttl == 0 {
		ttl = s.defaultTTL
	}
	if ttl <= 0 {
		return 0
	}
	return s.now().Add(ttl).UnixNano()
}

// expireValue releases (t, key)'s value after its TTL passed: bytes
// freed, expiry counted, and the simulated line invalidated (after
// t.mu is released — invalidation takes a shard lock, and the eviction
// hook takes t.mu while holding one, so the orders must never
// interleave). The deadline is re-checked under the lock: a racing Set
// may have refreshed the entry, in which case nothing is expired.
func (s *Store) expireValue(t *tenant, key string, addr uint64) {
	now := s.now().UnixNano()
	t.mu.Lock()
	e := t.find(addr, key)
	if e == nil || e.deadline == 0 || e.deadline > now {
		t.mu.Unlock()
		return
	}
	s.release(t, addr, key)
	t.expirations.Add(1)
	t.mu.Unlock()
	s.ac.Invalidate(addr|t.space, t.part)
}

// Set stores value under (tenant, key), warming the key's cache line,
// and reports whether that line hit (i.e. the key's line was already
// resident). The value is copied. The write goes through to the Backend
// first (when one is configured) and the cached copy is then kept
// unless it would overdraw MaxBytes (see admitValue), which is not an
// error — with a Backend the value is durable either way.
// The value expires after Config.DefaultTTL (never, when zero); use
// SetTTL for a per-entry TTL.
func (s *Store) Set(tenantName, key string, value []byte) (hit bool, err error) {
	return s.SetTTL(tenantName, key, value, 0)
}

// SetTTL is Set with a per-entry TTL: the value expires ttl after this
// write (lazily, on the Get that discovers it — see Get). ttl 0 defers
// to Config.DefaultTTL; negative is rejected with ErrBadTTL. A fresh
// Set always restarts the clock, and a Set without a TTL on a key that
// had one clears it.
func (s *Store) SetTTL(tenantName, key string, value []byte, ttl time.Duration) (hit bool, err error) {
	if key == "" {
		return false, ErrEmptyKey
	}
	if ttl < 0 {
		return false, fmt.Errorf("%w: %s", ErrBadTTL, ttl)
	}
	if s.cfg.MaxValueBytes > 0 && int64(len(value)) > s.cfg.MaxValueBytes {
		return false, fmt.Errorf("%w: %d bytes (limit %d)", ErrValueTooLarge, len(value), s.cfg.MaxValueBytes)
	}
	t, err := s.resolve(tenantName, true)
	if err != nil {
		return false, err
	}
	if s.backend != nil {
		if berr := s.backend.Set(tenantName, key, value); berr != nil {
			return false, fmt.Errorf("%w: %v", ErrBackend, berr)
		}
		t.backendSets.Add(1)
	}
	t.sets.Add(1)
	addr := hashKey(key)
	hit = s.access(t, addr)
	cp := make([]byte, len(value))
	copy(cp, value)
	s.admitValue(t, key, addr, cp, s.deadlineFor(ttl))
	return hit, nil
}

// admitValue hangs cp off line addr as (t, key)'s resident value with
// the given expiry deadline (unix nanos; 0 = never — a fresh Set
// without a TTL does not inherit a stale one), unless under MaxBytes it
// would overdraw the global byte bound. On that refusal any stale
// resident copy is released (a newer backend value must never be
// shadowed by an older cached one) and the drop is counted. Which lines
// are worth their capacity is Talus's decision, made on the lines
// themselves; the store only keeps the byte bound. Caller must not hold
// t.mu.
func (s *Store) admitValue(t *tenant, key string, addr uint64, cp []byte, deadline int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.find(addr, key)
	delta := int64(len(cp))
	if e != nil {
		delta -= int64(len(e.val))
	}
	if s.maxBytes > 0 && delta > 0 {
		// Reserve-then-check keeps the bound exact under concurrency:
		// the Add is the reservation, rolled back when it overdraws.
		if s.bytesTotal.Add(delta) > s.maxBytes {
			s.bytesTotal.Add(-delta)
			t.admitDrops.Add(1)
			s.release(t, addr, key)
			return
		}
	} else {
		s.bytesTotal.Add(delta)
	}
	t.bytes += delta
	if e == nil {
		e = &entry{key: key, next: t.lines[addr]}
		t.lines[addr] = e
		t.keys++
	}
	e.val, e.deadline = cp, deadline
}

// Delete removes (tenant, key), reporting whether a cached value
// existed, and invalidates the key's simulated line so a dead key does
// not linger as phantom residency skewing hit ratios and miss curves.
// It generates no cache traffic (a delete is not a reuse) and never
// auto-registers tenants. With a Backend the delete goes through to it
// first; existed still reports the cached copy only (an evicted value
// deletes as existed=false even though the backend held it).
func (s *Store) Delete(tenantName, key string) (existed bool, err error) {
	if key == "" {
		return false, ErrEmptyKey
	}
	t, err := s.resolve(tenantName, false)
	if err != nil {
		return false, err
	}
	if s.backend != nil {
		if berr := s.backend.Delete(tenantName, key); berr != nil {
			return false, fmt.Errorf("%w: %v", ErrBackend, berr)
		}
	}
	t.deletes.Add(1)
	addr := hashKey(key)
	// Invalidate before touching t.mu: invalidation takes a shard lock,
	// and the eviction hook takes t.mu while holding one — taking them
	// in the opposite order here would deadlock.
	s.ac.Invalidate(addr|t.space, t.part)
	t.mu.Lock()
	existed = s.release(t, addr, key)
	t.mu.Unlock()
	return existed, nil
}

// registered snapshots the registered tenants in partition order.
func (s *Store) registered() []*tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*tenant, 0, len(s.tenants))
	for p := range s.byPart {
		if t := s.byPart[p].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Tenants returns the registered tenant names in partition order.
func (s *Store) Tenants() []string {
	ts := s.registered()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.name
	}
	return out
}

// statsOf snapshots one tenant's counters.
func (s *Store) statsOf(t *tenant, allocs []int64) TenantStats {
	t.mu.RLock()
	keys, bytes := t.keys, t.bytes
	t.mu.RUnlock()
	st := TenantStats{
		Tenant:      t.name,
		Partition:   t.part,
		Gets:        t.gets.Load(),
		Sets:        t.sets.Load(),
		Deletes:     t.deletes.Load(),
		CacheHits:   t.hits.Load(),
		CacheMisses: t.misses.Load(),
		Keys:        keys,
		Bytes:       bytes,
		Expirations: t.expirations.Load(),
		Evictions:   t.evictions.Load(),
		AdmitDrops:  t.admitDrops.Load(),
		BackendGets: t.backendGets.Load(),
		BackendSets: t.backendSets.Load(),
	}
	if acc := st.CacheHits + st.CacheMisses; acc > 0 {
		st.HitRatio = float64(st.CacheHits) / float64(acc)
	}
	if t.part < len(allocs) {
		st.AllocLines = allocs[t.part]
	}
	return st
}

// Stats returns one tenant's serving counters.
func (s *Store) Stats(tenantName string) (TenantStats, error) {
	t, err := s.resolve(tenantName, false)
	if err != nil {
		return TenantStats{}, err
	}
	return s.statsOf(t, s.ac.Allocations()), nil
}

// StatsAll returns every registered tenant's counters, sorted by
// tenant name for stable output.
func (s *Store) StatsAll() []TenantStats {
	allocs := s.ac.Allocations()
	ts := s.registered()
	out := make([]TenantStats, len(ts))
	for i, t := range ts {
		out[i] = s.statsOf(t, allocs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Curves returns tenant's live measured miss curve (misses per
// kilo-access, EWMA over recent epochs) and its lower convex hull —
// the curve Talus realizes for it. Both are nil before the first epoch
// with traffic.
func (s *Store) Curves(tenantName string) (measured, hulled *curve.Curve, err error) {
	t, err := s.resolve(tenantName, false)
	if err != nil {
		return nil, nil, err
	}
	measured = s.ac.Curve(t.part)
	if measured == nil {
		return nil, nil, nil
	}
	return measured, hull.Lower(measured), nil
}

// SetTenantWeight adjusts a registered tenant's objective weight at
// runtime (see Config.Weights); the new weight takes effect at the next
// epoch's allocation. Never auto-registers: naming an unknown tenant
// fails with ErrUnknownTenant.
func (s *Store) SetTenantWeight(tenantName string, w float64) error {
	t, err := s.resolve(tenantName, false)
	if err != nil {
		return err
	}
	return s.ac.SetWeight(t.part, w)
}

// TenantControl is one tenant's row in the control-plane snapshot: its
// partition, live objective weight, configured line bounds, and current
// allocation.
type TenantControl struct {
	Tenant     string  `json:"tenant"`
	Partition  int     `json:"partition"`
	Weight     float64 `json:"weight"`
	MinLines   int64   `json:"min_lines,omitempty"`
	MaxLines   int64   `json:"max_lines,omitempty"`
	AllocLines int64   `json:"alloc_lines"`
}

// ControlState is the store's control-plane snapshot: the adaptive
// loop's controller state plus per-tenant weight/bounds/allocation rows
// (sorted by tenant name for stable output). Served at /v1/control.
type ControlState struct {
	adaptive.ControllerState
	Tenants []TenantControl `json:"tenants"`
}

// Control snapshots the control plane: epoch controller tunables, last
// churn measurement, and every registered tenant's weight and
// allocation.
func (s *Store) Control() ControlState {
	cs := ControlState{ControllerState: s.ac.Controller()}
	ts := s.registered()
	cs.Tenants = make([]TenantControl, 0, len(ts))
	for _, t := range ts {
		row := TenantControl{Tenant: t.name, Partition: t.part, Weight: 1}
		if cs.Weights != nil && t.part < len(cs.Weights) {
			row.Weight = cs.Weights[t.part]
		}
		if cs.MinLines != nil && t.part < len(cs.MinLines) {
			row.MinLines = cs.MinLines[t.part]
		}
		if cs.MaxLines != nil && t.part < len(cs.MaxLines) {
			row.MaxLines = cs.MaxLines[t.part]
		}
		if t.part < len(cs.Allocations) {
			row.AllocLines = cs.Allocations[t.part]
		}
		cs.Tenants = append(cs.Tenants, row)
	}
	sort.Slice(cs.Tenants, func(i, j int) bool { return cs.Tenants[i].Tenant < cs.Tenants[j].Tenant })
	return cs
}

// Cache exposes the underlying adaptive runtime (allocations, epochs,
// per-partition Talus configs).
func (s *Store) Cache() *adaptive.Cache { return s.ac }

// CacheStats returns the inner cache's access counts when it reports
// them (sharded caches sum their shards'); ok reports availability.
func (s *Store) CacheStats() (st cache.Stats, ok bool) {
	if c, has := s.ac.Shadowed().Inner().(interface{ Stats() cache.Stats }); has {
		return c.Stats(), true
	}
	return cache.Stats{}, false
}

// SetRecorder installs (or, with nil, removes) the record hook: every
// subsequent Get/Set access is appended as (partition, raw address).
// Not valid while file-backed recording is active, nor after Close
// (ErrClosed) — a closed store must not spring back to life recording.
func (s *Store) SetRecorder(r Recorder) error {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.recW != nil {
		return ErrRecording
	}
	s.rec = r
	s.recErr = nil
	s.recording.Store(r != nil)
	return nil
}

// StartRecording begins capturing front-end traffic to a trace file at
// path (gzip-compressed when gz), with registered tenant names embedded
// as per-partition metadata. The trace replays through the simulator
// (talus-sim -trace) against a cache built like this store's.
func (s *Store) StartRecording(path string, gz bool) error {
	metas := make([]trace.AppMeta, s.ac.NumLogical())
	for _, t := range s.registered() {
		metas[t.part] = trace.AppMeta{Name: t.name}
	}

	s.recMu.Lock()
	defer s.recMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.rec != nil {
		return ErrRecording
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	opts := []trace.WriterOption{trace.WithApps(metas)}
	if gz {
		opts = append(opts, trace.WithGzip())
	}
	w, err := trace.NewWriter(f, s.ac.NumLogical(), opts...)
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	s.rec, s.recW, s.recF, s.recErr = w, w, f, nil
	s.recording.Store(true)
	return nil
}

// StopRecording flushes and closes the current file-backed recording,
// returning the number of records captured (or the first append error).
func (s *Store) StopRecording() (int64, error) {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return s.stopRecordingLocked()
}

// stopRecordingLocked is StopRecording's body; caller holds recMu. A
// single teardown point shared with Close, so concurrent Close and
// StopRecording calls can never double-close the writer or the file.
func (s *Store) stopRecordingLocked() (int64, error) {
	if s.recW == nil {
		return 0, ErrNotRecording
	}
	count := s.recW.Count()
	err := s.recErr
	if cerr := s.recW.Close(); err == nil {
		err = cerr
	}
	if cerr := s.recF.Close(); err == nil {
		err = cerr
	}
	s.rec, s.recW, s.recF, s.recErr = nil, nil, nil, nil
	s.recording.Store(false)
	return count, err
}

// Recording reports whether a record hook is currently attached.
func (s *Store) Recording() bool { return s.recording.Load() }

// Close stops any active recording and shuts down the adaptive cache's
// background epoch ticker. Safe to call concurrently and repeatedly:
// the recorder teardown happens exactly once, under the same lock the
// datapath's record appends take, so an in-flight access either
// lands in the trace before the writer closes or is skipped cleanly —
// never appended to a closed writer. The Get/Set/Delete datapath stays
// usable after Close; only recorder installation is refused (ErrClosed).
func (s *Store) Close() error {
	s.recMu.Lock()
	var err error
	if !s.closed {
		s.closed = true
		if s.recW != nil {
			_, err = s.stopRecordingLocked()
		}
	}
	s.recMu.Unlock()
	if cerr := s.ac.Close(); err == nil {
		err = cerr
	}
	return err
}
