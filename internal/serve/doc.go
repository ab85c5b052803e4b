// Package serve is the stdlib-only HTTP front-end over the keyed store:
// the last layer between "reproduction of a paper" and "cache system
// serving traffic". It exposes the store's Get/Set/Delete as a REST
// surface, the live control-loop state (stats, miss curves,
// allocations) as JSON, and the record hook as an endpoint, so a
// production-shaped client can capture its own traffic and replay it
// offline through the simulator.
//
// # Routes
//
// All routes are method-dispatched; wrong methods get 405 with Allow set,
// unknown paths 404.
//
//	GET    /v1/cache/{tenant}/{key}   → stored bytes; X-Talus-Cache: hit|miss; ETag; 304 on If-None-Match
//	PUT    /v1/cache/{tenant}/{key}   → store body (204); X-Talus-Cache + ETag set; X-Talus-TTL: secs honored
//	DELETE /v1/cache/{tenant}/{key}   → remove value (204; 404 if absent)
//	GET    /v1/stats                  → per-tenant counters + cache totals + node identity
//	GET    /v1/curves                 → per-tenant measured + hulled curves
//	GET    /v1/cluster                → ring membership, vnodes, seed, per-node key share
//	GET    /v1/control                → control-loop state: churn, epoch budget, weights, bounds
//	PUT    /v1/control/tenants/{tenant} → {"weight": w} adjusts the tenant's objective weight
//	POST   /v1/record                 → {"action":"start","path":...,"gzip":bool} | {"action":"stop"}
//
// Keys may contain slashes ({key...} pattern).
//
// # The X-Talus-Cache header
//
// Every GET and successful PUT on /v1/cache carries X-Talus-Cache with
// value "hit" or "miss". On a GET, "hit" means the body came from the
// value resident in this node's cache: a 404 is always "miss" (its
// access still shapes the tenant's miss curve, exactly as fill traffic
// shapes a real LLC's), and so is a value read through the backend —
// the header is the backend cost the request paid or avoided. On a PUT
// it reports whether the key's line was already resident. A rejected
// PUT (413 and other errors) has no header because no cache access
// happened.
//
// # ETags, TTLs, and node identity
//
// Cache GETs carry a strong ETag — a quoted 16-hex FNV-1a hash of the
// value bytes, identical for identical bytes on every node — and honor
// If-None-Match ("*" or any listed tag, weak prefixes ignored) with
// 304 and no body; successful PUTs return the stored value's tag. PUTs
// accept X-Talus-TTL with a non-negative integer number of seconds
// (malformed values are 400), giving the entry a lazy expiry deadline;
// absent or 0 defers to the store's DefaultTTL. Every locally served
// cache response names its server in X-Talus-Node — under a proxying
// cluster that is the ring owner, not the entry node — and /v1/stats
// carries the same identity in its "node" block (id, pid, start time,
// GOMAXPROCS).
//
// # Cluster proxy mode
//
// With Config.Cluster set (talus-serve -route), cache requests whose
// (tenant, key) the consistent-hash ring assigns to a peer are
// forwarded there — request headers that matter (If-None-Match,
// X-Talus-TTL, Content-Type) travel along, the owner's status, body,
// and response headers are relayed verbatim, and a failed forward is
// 502. Forwarded requests carry X-Talus-Forwarded and are always
// served locally by the receiver, so membership disagreement costs at
// most one extra hop, never a loop. GET /v1/cluster reports the ring
// (membership, vnode count, seed, analytic per-node key share) and is
// served in single-node mode too, with "clustered": false.
//
// # Errors
//
// Error responses are JSON, shaped {"error": "<message>"}, with the
// store's typed errors mapped onto status codes:
//
//	404  store.ErrNotFound, store.ErrUnknownTenant (a GET on an unknown
//	     tenant never registers it — registration is a write privilege)
//	413  store.ErrValueTooLarge; request bodies over the PUT limit
//	429  store.ErrTenantCapacity (every partition — or the -max-tenants
//	     cap — already has a tenant; retry against an existing one)
//	502  store.ErrBackend (the backing tier behind the store failed)
//	400  store.ErrEmptyTenant/ErrEmptyKey, malformed /v1/record requests,
//	     store.ErrRecording/ErrNotRecording (start while active / stop while idle),
//	     malformed or negative /v1/control weight bodies,
//	     store.ErrBadTTL and malformed X-Talus-TTL headers
//
// # Residency stats
//
// /v1/stats reports the live "bytes" total, "maxBytes" when a byte cap
// is set, and "backend": true when a backing tier is attached. Each
// tenant row counts the values that left their lines (evictions,
// expirations, admitDrops under the cap's gate at rate admitRho) and
// the backend traffic that paid for it (backendGets, backendSets);
// cacheHits/cacheMisses/hitRatio count line outcomes over Gets and
// Sets — the control loop's input — not X-Talus-Cache values.
//
// # The POST /v1/record contract
//
// /v1/record writes files server-side, so it is an explicit operator
// decision: unless the handler is configured with a record directory
// (Config.RecordDir; talus-serve -record-dir), the endpoint refuses
// every request with status 403 and the exact body
//
//	{"error": "recording disabled: the server was started without a record directory"}
//
// With a record directory set, "start" requests must name a bare file
// inside it: path separators, "..", dot-prefixed names, and empty names
// are rejected with 400. Successful starts answer
// {"recording":true,"path":...}; successful stops answer
// {"recording":false,"records":N} with the number of accesses captured.
// TestRecordEndpoint and TestHTTPContract pin these bodies.
//
// # The control plane
//
// GET /v1/control is read-only and always served: the control loop's
// state (epoch count, measured curve churn, the configured epoch budget
// and interval, allocator name, per-partition allocations and weights,
// and "last_error" when the latest epoch step failed and left the
// allocation standing) plus one row per tenant (weight, line bounds,
// current allocation). Mutation is gated like
// recording: unless the handler is configured with Config.Control
// (talus-serve -control), PUT /v1/control/tenants/{tenant} refuses
// every request with status 403 and the exact body
//
//	{"error": "control disabled: the server was started without the control plane enabled"}
//
// With the gate open, the PUT body {"weight": w} (w ≥ 0) adjusts the
// named tenant's objective weight live — the next epoch allocates
// under the new objective — answering {"tenant":...,"weight":w};
// unknown tenants are 404 and never minted.
package serve
