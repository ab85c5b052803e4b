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
// (talus-sim -trace) unchanged. Distinct keys may collide on a
// line (two keys in ~2^48 lines); a collision only nudges the simulated
// hit ratio, never the stored values: colliding entries chain off the
// line and are told apart by their full key.
//
// Tenants bind to logical partitions in arrival order: the first Set
// naming a new tenant claims the next free partition (Config.Static
// disables this and admits only pre-declared tenants; Config.MaxTenants
// caps the roster below the partition count). Registration is a
// write-path privilege — a Get on an unknown tenant returns
// ErrUnknownTenant without minting anything, so anonymous lookups
// cannot exhaust partitions. The partition count is fixed at cache
// construction, so once every partition (or the MaxTenants cap) is
// claimed, further new tenants are refused with ErrTenantCapacity.
//
// # Residency: one index, one way out
//
// A value lives exactly as long as its simulated line does. Each tenant
// keeps one index, line address → the entries admitted on that line
// (key, bytes, expiry deadline), and a Get is a hit exactly when it is
// served from that entry — never for ErrNotFound, never for a backend
// read. A Get whose key holds no value still accesses the cache (miss
// traffic shapes the miss curve, as in a real LLC); TenantStats counts
// those line outcomes, which are what the control loop consumes.
//
// Every value leaves through one release path. The store installs an
// eviction hook down the cache stack (ErrNoEviction if the stack cannot
// provide one): when the replacement policy evicts a line, the hook
// releases every entry on it, so the footprint tracks the simulated
// contents and the line capacity bounds the key count whatever else is
// configured. TTL expiry and Delete release the entry and invalidate
// its line (statelessly — no stats, no hook), so a dead key cannot keep
// "hitting"; a byte-cap refusal releases any stale copy.
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
// live front-end traffic becomes a replayable trace (talus-sim -trace,
// talus-trace replay). Recording serializes appends on a mutex;
// under concurrent traffic the recorded order is one valid
// interleaving of the live one.
//
// # Per-entry TTL and node identity
//
// SetTTL gives one entry a lifetime (Config.DefaultTTL gives every
// plain Set one); a later Set refreshes or clears it. Expiry is lazy —
// no sweeper, no per-key timer: a Get past the deadline releases the
// value's bytes, invalidates its simulated line (outside the tenant
// lock, same ordering discipline as Delete), counts one expiration in
// TenantStats, and proceeds as a real miss, including read-through
// re-admission when a backend is configured. Node() reports the
// serving instance's identity (Config.NodeID or "<hostname>-<pid>",
// pid, start time, GOMAXPROCS) for /v1/stats and cluster attribution;
// SetNow is the test seam for the TTL clock.
//
// All methods are safe for concurrent use when the underlying adaptive
// cache is (build it over a sharded inner cache).
package store
