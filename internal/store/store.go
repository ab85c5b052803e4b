package store

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"talus/internal/adaptive"
	"talus/internal/curve"
	"talus/internal/hash"
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
	// ErrValueTooLarge rejects a value over the front-end's size limit
	// (the HTTP body cap, serve.Config.MaxValueBytes).
	ErrValueTooLarge = errors.New("store: value too large")
	// ErrNotRecording reports StopRecording without StartRecording.
	ErrNotRecording = errors.New("store: not recording")
	// ErrRecording reports StartRecording while already recording.
	ErrRecording = errors.New("store: already recording")
	// ErrClosed reports SetRecorder/StartRecording after Close.
	ErrClosed = errors.New("store: closed")
	// ErrNoEviction reports a cache stack that is no core.Evictor: one
	// that cannot report its evictions or drop a line on request would
	// strand the values hanging off its lines.
	ErrNoEviction = errors.New("store: cache stack does not report evictions and invalidate lines")
	// ErrBadTTL rejects a negative per-entry TTL.
	ErrBadTTL = errors.New("store: negative ttl")
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
	// MaxBytes bounds the total value bytes held across all tenants
	// (0 = no byte cap; the line capacity still bounds the key count).
	// Under a cap, a value that would overdraw it is not kept.
	MaxBytes int64
	// Backend, when non-nil, is the backing tier: Sets write through to
	// it and a Get whose value is gone (evicted, expired or never
	// admitted) reads through and re-admits. Without one such a value
	// is lost.
	Backend Backend
	// Weights gives tenants objective weights in the allocator's Request
	// (see alloc.Request.Weights): a weight-4 tenant's saved miss counts
	// four times a weight-1 tenant's. Applied when the named tenant
	// registers (at New for pre-declared tenants, at first Set for
	// auto-registered ones); tenants not named weigh 1. Adjustable at
	// runtime via SetTenantWeight.
	Weights map[string]float64
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

// text is a tenant name or key as the store takes it: a string from a
// library caller, the bytes of a request from the HTTP front-end. Both
// run one body. string(k) is the string itself for a string; for bytes
// it is a copy, made only where a key must outlive the call: in a new
// entry, and for a Backend, which takes strings (see backendKey).
type text interface{ string | []byte }

// entry is the one value resident on a simulated line. Fields are read
// and written under the tenant's mu.
type entry struct {
	key      string
	val      []byte
	deadline int64 // expiry, unix nanos; 0 = never
}

// tenant is one registered tenant: a logical partition, the values
// resident on its lines, and its counters.
type tenant struct {
	name  string
	part  int
	space uint64 // adaptive.AppSpace(part), OR-ed onto every address

	mu    sync.RWMutex
	lines map[uint64]*entry // 48-bit line addr → the value on that line
	bytes int64             // their value bytes

	gets, sets, deletes atomic.Int64
	hits, misses        atomic.Int64

	evictions, admitDrops, backendGets, backendSets atomic.Int64
	expirations                                     atomic.Int64
}

// registry is the tenant roster. A published registry is never
// written: registration publishes a copy, so requests and the eviction
// hook read the roster without a lock.
type registry struct {
	byName map[string]*tenant
	byPart []*tenant // partition → tenant (nil while unclaimed)
}

// Store is the keyed serving layer. Construct with New (or the public
// builder talus.NewStore).
type Store struct {
	ac  *adaptive.Cache
	cfg Config

	node NodeStats        // this instance's identity (cluster attribution)
	now  func() time.Time // clock; replaceable for TTL tests (SetNow)

	bytesTotal atomic.Int64 // value bytes across all tenants

	roster atomic.Pointer[registry]
	regMu  sync.Mutex // serializes registrations, which alone write the roster

	recording atomic.Bool // fast-path gate; truth lives under recMu
	recMu     sync.Mutex
	rec       Recorder
	recW      *trace.FileWriter // non-nil only for file-backed recording
	recErr    error
	closed    bool // Close ran; recorder installation is refused
}

// New builds a Store over an adaptive cache, registering cfg.Tenants
// onto the first partitions. The cache's logical partition count bounds
// the tenant count: once every partition has a tenant, registering
// another fails with ErrTenantCapacity. Values live and die with their
// simulated lines, so the cache stack must report its evictions and
// invalidate lines on request (every stack adaptive.Build builds does);
// otherwise New fails with ErrNoEviction. Every Get and Set takes the
// owning shard's lock once for its cache access.
func New(ac *adaptive.Cache, cfg Config) (*Store, error) {
	if len(cfg.Tenants) > ac.NumLogical() {
		return nil, fmt.Errorf("%w: %d tenants for %d partitions", ErrTenantCapacity, len(cfg.Tenants), ac.NumLogical())
	}
	s := &Store{ac: ac, cfg: cfg, now: time.Now}
	s.roster.Store(&registry{byPart: make([]*tenant, ac.NumLogical())})
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
		if err := adaptive.CheckWeight(w); err != nil {
			return nil, fmt.Errorf("store: tenant %q: %w", name, err)
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
func (s *Store) MaxBytes() int64 { return s.cfg.MaxBytes }

// Bytes returns the value bytes currently held across all tenants. It
// never exceeds MaxBytes (when one is set).
func (s *Store) Bytes() int64 { return s.bytesTotal.Load() }

// Backend returns the configured backing tier (nil when none).
func (s *Store) Backend() Backend { return s.cfg.Backend }

// Node returns this instance's identity block: the id, start time, and
// GOMAXPROCS that /v1/stats serves and cluster clients use to
// attribute traffic per node.
func (s *Store) Node() NodeStats { return s.node }

// SetNow replaces the store's clock. A test hook for TTL expiry — call
// it before serving traffic; it is not synchronized with the datapath.
func (s *Store) SetNow(now func() time.Time) { s.now = now }

// onEvict is the cache stack's eviction hook: line (part, addr) was
// evicted, so the value stored on that line dies with it — the next
// Get for its key is a true miss (served through the Backend when
// one is configured). Runs on the accessing goroutine with a shard
// lock held, so it only touches tenant state, never the cache.
func (s *Store) onEvict(part int, addr uint64) {
	r := s.roster.Load()
	if part < 0 || part >= len(r.byPart) || r.byPart[part] == nil {
		return
	}
	t := r.byPart[part]
	t.mu.Lock()
	drop(s, t, addr&addrMask, "") // strip the feeder's partition-space bits
	t.mu.Unlock()
}

// find returns key's entry on line addr, or nil when the line holds no
// value or another key's. Caller holds t.mu.
func find[K text](t *tenant, addr uint64, key K) *entry {
	if e := t.lines[addr]; e != nil && e.key == string(key) {
		return e
	}
	return nil
}

// drop takes the value off line addr and returns its bytes to the
// books: the one way a value leaves the store, whatever ended its
// residency (eviction, expiry, Delete, a byte-cap refusal). The value
// may be key's or, on a line two keys share, the other key's; the other
// key's counts as an eviction, since its line is gone (the eviction
// hook passes key "", so any value it drops is one). Reports whether
// key's own value was dropped. Caller holds t.mu.
func drop[K text](s *Store, t *tenant, addr uint64, key K) bool {
	e := t.lines[addr]
	if e == nil {
		return false
	}
	delete(t.lines, addr)
	t.bytes -= int64(len(e.val))
	s.bytesTotal.Add(-int64(len(e.val)))
	if e.key != string(key) {
		t.evictions.Add(1)
		return false
	}
	return true
}

// hashKey maps a key to its 48-bit line address by FNV-1a: stable
// across processes and platforms, so traces recorded here replay
// anywhere. Bits 48–63 stay clear for the feeders' partition offsets.
func hashKey[K text](key K) uint64 { return hash.FNV64a(key) & addrMask }

// register claims the next free partition for name and publishes the
// roster with it.
func (s *Store) register(name string) (*tenant, error) {
	if name == "" {
		return nil, ErrEmptyTenant
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	r := s.roster.Load()
	if t, ok := r.byName[name]; ok {
		return t, nil // raced with another registration of the same name
	}
	part := slices.Index(r.byPart, nil)
	if part < 0 {
		return nil, fmt.Errorf("%w (%d)", ErrTenantCapacity, len(r.byPart))
	}
	t := &tenant{
		name: name, part: part, space: adaptive.AppSpace(part),
		lines: make(map[uint64]*entry),
	}
	// Thread the tenant's configured weight into the claimed partition;
	// a tenant without one leaves the allocator's Request untouched
	// (uniform objective). Weights were validated at New.
	if w, ok := s.cfg.Weights[name]; ok {
		if err := s.ac.SetWeight(part, w); err != nil {
			return nil, err
		}
	}
	next := &registry{
		byName: make(map[string]*tenant, len(r.byName)+1),
		byPart: append([]*tenant(nil), r.byPart...),
	}
	for n, rt := range r.byName {
		next.byName[n] = rt
	}
	next.byName[name], next.byPart[part] = t, t
	s.roster.Store(next)
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
func resolve[K text](s *Store, name K, autoRegister bool) (*tenant, error) {
	if len(name) == 0 {
		return nil, ErrEmptyTenant
	}
	if t := s.roster.Load().byName[string(name)]; t != nil {
		return t, nil
	}
	if !autoRegister || s.cfg.Static {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return s.register(string(name))
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
// lazily here: its bytes are released and the Get proceeds as a miss.
// With a Backend, a miss (evicted, expired, or refused by the byte cap)
// reads through the Backend and re-admits under the same cap. An
// expired key's simulated line is invalidated when nothing is
// re-admitted onto it (a dead key must not linger as phantom
// residency). The returned slice is shared — callers must not modify
// it.
func (s *Store) Get(tenantName, key string) (value []byte, hit bool, err error) {
	return get(s, tenantName, key)
}

// GetBytes is Get with the tenant and key as bytes, which it does not
// keep.
func (s *Store) GetBytes(tenantName, key []byte) (value []byte, hit bool, err error) {
	return get(s, tenantName, key)
}

func get[K text](s *Store, tenantName, key K) (value []byte, hit bool, err error) {
	if len(key) == 0 {
		return nil, false, ErrEmptyKey
	}
	t, err := resolve(s, tenantName, false)
	if err != nil {
		return nil, false, err
	}
	t.gets.Add(1)
	addr := hashKey(key)
	s.access(t, addr)
	value, ok, expired := read(s, t, addr, key)
	if ok {
		return value, true, nil
	}
	value, err = readThrough(s, t, key, addr)
	if err != nil && expired {
		// Nothing was re-admitted, so the expired key's line goes. Not
		// before the read-through: a re-admitted value hangs off this
		// Get's line, and off an invalidated one no eviction could ever
		// release it. Invalidation takes a shard lock, so t.mu is not
		// held here (the eviction hook takes t.mu under one).
		s.ac.Invalidate(addr|t.space, t.part)
	}
	return value, false, err
}

// readThrough serves a Get whose value is gone locally (evicted,
// expired, refused by the byte cap, or never written here): it fetches
// the value from the Backend and re-admits it, paying the modeled
// backend cost this miss represents. The re-admitted copy starts a
// fresh DefaultTTL (the backend does not remember per-entry TTLs).
// Without a Backend the Get is ErrNotFound; when the Backend lacks the
// key, it is the Backend's own ErrNotFound, as it is.
func readThrough[K text](s *Store, t *tenant, key K, addr uint64) ([]byte, error) {
	if s.cfg.Backend == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	t.backendGets.Add(1)
	k := backendKey(t, addr, key)
	v, err := s.cfg.Backend.Get(t.name, k)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrBackend, err)
	}
	admit(s, t, k, addr, v, s.deadlineFor(0))
	return v, nil
}

// backendKey returns key as the string a Backend call takes: a string
// as it is; bytes whose entry is resident on line addr as the entry's
// key, so that a write-through of a resident key copies nothing; other
// bytes as a copy.
func backendKey[K text](t *tenant, addr uint64, key K) string {
	if k, ok := any(key).(string); ok {
		return k
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e := find(t, addr, key); e != nil {
		return e.key
	}
	return string(key)
}

// read returns key's live value off line addr. A value whose TTL has
// passed is released, its expiry counted, and reported as expired; the
// line is the caller's to invalidate (see Get). Expiry is re-checked
// under the write lock, where a Set racing it may have landed a fresh
// value that must be served, not swallowed.
func read[K text](s *Store, t *tenant, addr uint64, key K) (value []byte, ok, expired bool) {
	t.mu.RLock()
	e := find(t, addr, key)
	if e != nil && !s.past(e.deadline) {
		value, ok = e.val, true
	}
	t.mu.RUnlock()
	if e == nil || ok {
		return value, ok, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e = find(t, addr, key); e == nil {
		return nil, false, false
	}
	if !s.past(e.deadline) {
		return e.val, true, false
	}
	drop(s, t, addr, key)
	t.expirations.Add(1)
	return nil, false, true
}

// past reports whether an expiry deadline (unix nanos; 0 = never) has
// passed. Only a value with a deadline reads the clock.
func (s *Store) past(deadline int64) bool {
	return deadline != 0 && deadline <= s.now().UnixNano()
}

// deadlineFor converts a per-entry TTL into an absolute expiry
// deadline in unix nanos: 0 selects the configured DefaultTTL, and a
// zero result means "never expires".
func (s *Store) deadlineFor(ttl time.Duration) int64 {
	if ttl == 0 {
		ttl = s.cfg.DefaultTTL
	}
	if ttl <= 0 {
		return 0
	}
	return s.now().Add(ttl).UnixNano()
}

// Set stores value under (tenant, key), warming the key's cache line,
// and reports whether that line hit (i.e. the key's line was already
// resident). The value is copied. The write goes through to the Backend
// first (when one is configured) and the cached copy is then kept
// unless it would overdraw MaxBytes (see admit), which is not an
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
	return set(s, tenantName, key, value, ttl, false)
}

// SetBytes is SetTTL with the tenant and key as bytes, which it does not
// keep, and a value that it keeps rather than copies: the caller hands
// value over and must not write into it again. A value whose capacity is
// not its length is copied all the same, so that the bytes the books
// count are the bytes the value holds.
func (s *Store) SetBytes(tenantName, key, value []byte, ttl time.Duration) (hit bool, err error) {
	return set(s, tenantName, key, value, ttl, true)
}

func set[K text](s *Store, tenantName, key K, value []byte, ttl time.Duration, keep bool) (hit bool, err error) {
	if len(key) == 0 {
		return false, ErrEmptyKey
	}
	if ttl < 0 {
		return false, fmt.Errorf("%w: %s", ErrBadTTL, ttl)
	}
	t, err := resolve(s, tenantName, true)
	if err != nil {
		return false, err
	}
	if !keep || cap(value) != len(value) {
		cp := make([]byte, len(value))
		copy(cp, value)
		value = cp
	}
	addr := hashKey(key)
	if s.cfg.Backend != nil {
		if berr := s.cfg.Backend.Set(t.name, backendKey(t, addr, key), value); berr != nil {
			return false, fmt.Errorf("%w: %v", ErrBackend, berr)
		}
		t.backendSets.Add(1)
	}
	t.sets.Add(1)
	hit = s.access(t, addr)
	admit(s, t, key, addr, value, s.deadlineFor(ttl))
	return hit, nil
}

// admit makes value (t, key)'s value on line addr with the given
// expiry deadline (unix nanos; 0 = never — a fresh Set without a TTL
// does not inherit a stale one), unless under MaxBytes it would
// overdraw the global byte bound. A line holds one value: another
// key's value there is replaced and counted as an eviction, as a
// conflict is in the array. On a refusal any stale copy of key is
// released (a newer backend value must never be shadowed by an older
// cached one), another key's value stays, and the drop is counted.
// Which lines are worth their capacity is Talus's decision, made on the
// lines themselves; the store only keeps the byte bound. Caller must
// not hold t.mu.
func admit[K text](s *Store, t *tenant, key K, addr uint64, value []byte, deadline int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.lines[addr]
	delta := int64(len(value))
	if e != nil {
		delta -= int64(len(e.val))
	}
	if s.cfg.MaxBytes > 0 && delta > 0 {
		// Reserve-then-check keeps the bound exact under concurrency:
		// the Add is the reservation, rolled back when it overdraws.
		if s.bytesTotal.Add(delta) > s.cfg.MaxBytes {
			s.bytesTotal.Add(-delta)
			t.admitDrops.Add(1)
			if e != nil && e.key == string(key) {
				drop(s, t, addr, key)
			}
			return
		}
	} else {
		s.bytesTotal.Add(delta)
	}
	t.bytes += delta
	// A key is stored only by an entry that did not hold it, and a byte
	// key is copied then, to its length; an overwrite of the same key
	// keeps the string the entry has.
	if e == nil {
		e = &entry{key: string(key)}
		t.lines[addr] = e
	} else if e.key != string(key) {
		e.key = string(key)
		t.evictions.Add(1)
	}
	e.val, e.deadline = value, deadline
}

// Delete removes (tenant, key), reporting whether a cached value
// existed, and invalidates the key's simulated line so a dead key does
// not linger as phantom residency skewing hit ratios and miss curves.
// The value on that line goes with it, as with an eviction: key's own,
// or another key's that shares the line (counted as an eviction). It
// generates no cache traffic (a delete is not a reuse) and never
// auto-registers tenants. With a Backend the delete goes through to it
// first; existed still reports the cached copy only (an evicted value
// deletes as existed=false even though the backend held it).
func (s *Store) Delete(tenantName, key string) (existed bool, err error) {
	return del(s, tenantName, key)
}

// DeleteBytes is Delete with the tenant and key as bytes, which it does
// not keep.
func (s *Store) DeleteBytes(tenantName, key []byte) (existed bool, err error) {
	return del(s, tenantName, key)
}

func del[K text](s *Store, tenantName, key K) (existed bool, err error) {
	if len(key) == 0 {
		return false, ErrEmptyKey
	}
	t, err := resolve(s, tenantName, false)
	if err != nil {
		return false, err
	}
	addr := hashKey(key)
	if s.cfg.Backend != nil {
		if berr := s.cfg.Backend.Delete(t.name, backendKey(t, addr, key)); berr != nil {
			return false, fmt.Errorf("%w: %v", ErrBackend, berr)
		}
	}
	t.deletes.Add(1)
	// Invalidate before touching t.mu: invalidation takes a shard lock,
	// and the eviction hook takes t.mu while holding one — taking them
	// in the opposite order here would deadlock.
	s.ac.Invalidate(addr|t.space, t.part)
	t.mu.Lock()
	existed = drop(s, t, addr, key)
	t.mu.Unlock()
	return existed, nil
}

// registered snapshots the registered tenants in partition order.
func (s *Store) registered() []*tenant {
	r := s.roster.Load()
	out := make([]*tenant, 0, len(r.byName))
	for _, t := range r.byPart {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// statsOf snapshots one tenant's counters.
func (s *Store) statsOf(t *tenant, allocs []int64) TenantStats {
	t.mu.RLock()
	keys, bytes := int64(len(t.lines)), t.bytes
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
	t, err := resolve(s, tenantName, false)
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
	t, err := resolve(s, tenantName, false)
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
	t, err := resolve(s, tenantName, false)
	if err != nil {
		return err
	}
	return s.ac.SetWeight(t.part, w)
}

// TenantControl is one tenant's row in the control-plane snapshot: its
// partition, live objective weight, and current allocation.
type TenantControl struct {
	Tenant     string  `json:"tenant"`
	Partition  int     `json:"partition"`
	Weight     float64 `json:"weight"`
	AllocLines int64   `json:"alloc_lines"`
}

// ControlState is the store's control-plane snapshot: the adaptive
// loop's controller state plus per-tenant weight/allocation rows
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
// (talus-sim adaptive -trace) against a cache built like this store's.
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
	opts := []trace.WriterOption{trace.WithApps(metas)}
	if gz {
		opts = append(opts, trace.WithGzip())
	}
	w, err := trace.Create(path, s.ac.NumLogical(), opts...)
	if err != nil {
		return err
	}
	s.rec, s.recW, s.recErr = w, w, nil
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
// StopRecording calls can never double-close the trace file.
func (s *Store) stopRecordingLocked() (int64, error) {
	if s.recW == nil {
		return 0, ErrNotRecording
	}
	count := s.recW.Count()
	err := s.recErr
	if cerr := s.recW.Close(); err == nil {
		err = cerr
	}
	s.rec, s.recW, s.recErr = nil, nil, nil
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
