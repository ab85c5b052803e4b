// Package store is the keyed serving layer over the adaptive Talus
// runtime: it maps (tenant, key) requests onto the line-address
// datapath the rest of the system speaks, and stores real bytes while
// doing so. This is the API pivot from "simulator" to "cache system" —
// callers Get/Set/Delete string keys; underneath, each tenant owns one
// logical partition of an adaptive.Cache, each key hashes to a line
// address, and every request drives the monitor → hull → Talus →
// allocator loop exactly like simulated traffic does.
//
// # Key → address, tenant → partition
//
// A key's line address is the FNV-1a 64-bit hash of its bytes, masked
// to 48 bits — the feeders' per-partition offset (adaptive.AppSpace,
// bits 48–55) and the trace flattener's tags (bits 56–63) stay clear, so
// a stream recorded from the store replays through the simulator
// (talus-sim adaptive -trace) unchanged. A line holds one value, as a
// line in the array does: a key whose line holds another key's value
// (two keys on one of ~2^48 lines) replaces it, and the replacement
// counts as an eviction. Every read compares the full key, so one key's
// bytes are never served for another's.
//
// Tenants bind to logical partitions in arrival order: the first Set
// naming a new tenant claims the next free partition (Config.Static
// disables this and admits only pre-declared tenants). Registration is
// a write-path privilege — a Get on an unknown tenant returns
// ErrUnknownTenant without minting anything, so anonymous lookups
// cannot exhaust partitions. The partition count is fixed at cache
// construction and is the roster's one cap: once every partition is
// claimed, further new tenants are refused with ErrTenantCapacity. The
// roster is one immutable snapshot (name → tenant, partition → tenant)
// that registration replaces under its own mutex; requests and the
// eviction hook read it without a lock, so no request takes a
// store-wide lock.
//
// # Residency: one index, one way out
//
// A value lives exactly as long as its simulated line does. Each tenant
// keeps one index, line address → the one entry resident on that line
// (key, bytes, expiry deadline), and a Get is a hit exactly when it is
// served from that entry — never for ErrNotFound, never for a backend
// read. A Get whose key holds no value still accesses the cache (miss
// traffic shapes the miss curve, as in a real LLC); TenantStats counts
// those line outcomes, which are what the control loop consumes.
//
// Every value leaves through one release path. The store installs an
// eviction hook down the cache stack (ErrNoEviction if the stack cannot
// both report evictions and invalidate lines): when the replacement
// policy evicts a line, the hook releases the entry on it, so the
// footprint tracks the simulated contents and the line capacity bounds
// the key count whatever else is configured. Delete invalidates the
// key's line (statelessly — no stats, no hook) and releases the entry
// on it the same way: the key's own, or a value another key left on a
// shared line, which counts as an eviction. TTL expiry releases the
// entry and invalidates its line unless a read-through re-admits the
// key onto it, so a dead key cannot keep "hitting"; a byte-cap refusal
// releases any stale copy.
//
// Config.MaxBytes and Config.Backend are independent parameters on
// that one path. With MaxBytes > 0 a hard reservation check refuses any
// value that would push total value bytes over the cap; refusals count
// as AdmitDrops in TenantStats. Nothing else stands between a Set and
// its line: which lines earn their capacity is Talus's decision, and
// the paper shows its hull dominates optimal bypassing (Eq. 6) at every
// size (§V-C, Fig. 6), so a bypass gate on top would only second-guess
// it.
//
// With a Backend the store is a read-through, write-through cache over
// it: Set writes the backing tier first (failures surface as
// ErrBackend), and a Get whose value is gone refetches from the backend
// and re-admits under the same cap. Eviction then costs
// latency, not data; without a Backend an evicted value is lost.
//
// # The access path
//
// Every Get and Set drives exactly one simulated cache access, directly:
// the record hook (when attached), adaptive.Cache.Access in the tenant's
// partition space, then the tenant's hit/miss counters. There is one
// such path for every request at every GOMAXPROCS; stats and the record
// hook count every access exactly once.
//
// # Recording
//
// An optional record hook captures every cache access (partition, raw
// 48-bit address) through a Recorder — trace.Writer satisfies it — so
// live front-end traffic becomes a replayable trace (talus-sim
// adaptive -trace). Recording serializes appends on a mutex;
// under concurrent traffic the recorded order is one valid
// interleaving of the live one.
//
// # Per-entry TTL and node identity
//
// SetTTL gives one entry a lifetime (Config.DefaultTTL gives every
// plain Set one); a later Set refreshes or clears it. Expiry is lazy —
// no sweeper, no per-key timer: a Get past the deadline releases the
// value's bytes, counts one expiration in TenantStats, and proceeds as
// a real miss, including read-through re-admission when a backend is
// configured. When nothing is re-admitted it then invalidates the
// key's simulated line (outside the tenant lock, same ordering
// discipline as Delete); a re-admitted copy keeps the line this Get
// made resident, so eviction can still release it. Node() reports the
// serving instance's identity (Config.NodeID or "<hostname>-<pid>",
// pid, start time, GOMAXPROCS) for /v1/stats and cluster attribution;
// SetNow is the test seam for the TTL clock.
//
// # Who owns a key and a value
//
// Get, Set, SetTTL and Delete take their tenant and key as strings;
// GetBytes, SetBytes and DeleteBytes, which the HTTP front-end calls on
// bytes of a request it reuses for the next, take them as bytes. Each
// pair runs one body, generic over string and []byte. The store keeps
// no caller's key: only an entry it creates, or one whose line another
// key takes over, stores its key, as string(key), which for a string is
// the string itself and for bytes one copy of exactly the key. Set and
// SetTTL copy their value. SetBytes keeps the value it is handed, which
// its caller must not write into again, unless the value's capacity is
// not its length: then it copies too, so that the bytes the books count
// are the bytes held.
//
// All methods are safe for concurrent use when the underlying adaptive
// cache is (build it over a sharded inner cache).
package store
