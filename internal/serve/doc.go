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
// All routes are method-dispatched by one http.ServeMux, the cache
// routes through three patterns (HEAD is served as GET); wrong methods
// get 405 with Allow set, unknown paths 404, and unclean paths ("..",
// "//") a 301 to their clean form. Every reply whose status allows a
// body is framed by Content-Length, so net/http never chunks one.
// TestRoutingTable pins the table on both transports below.
//
//	GET    /v1/cache/{tenant}/{key}   → stored bytes; X-Talus-Cache: hit|miss; ETag; 304 on If-None-Match
//	PUT    /v1/cache/{tenant}/{key}   → store body (204); X-Talus-Cache + ETag set; X-Talus-TTL: secs honored
//	DELETE /v1/cache/{tenant}/{key}   → remove value (204; 404 if absent)
//	GET    /v1/stats                  → per-tenant counters + cache totals + node identity + owned-connection counts
//	GET    /v1/curves                 → per-tenant measured + hulled curves
//	GET    /v1/cluster                → ring membership, vnodes, seed, per-node key share
//	GET    /v1/control                → control-loop state: churn, epoch budget, weights, bounds
//	PUT    /v1/control/tenants/{tenant} → {"weight": w} adjusts the tenant's objective weight
//	POST   /v1/record                 → {"action":"start","path":...,"gzip":bool} | {"action":"stop"}
//
// Keys may contain slashes ({key...} pattern).
//
// # Connections
//
// When a Handler is its http.Server's own Handler, it serves the
// keep-alive connections of cache clients itself. The first HTTP/1.1
// cache request on a clean /v1/cache/ path with no body and no
// Connection, Expect, Transfer-Encoding, Upgrade or Trailer header
// hijacks its connection (plain TCP only), and one goroutine per
// connection serves it from then on: net/http's handler returns, and
// its per-connection state and buffers go. That goroutine parses each
// request head straight into the one request value the cache path
// takes on either transport, answers GET, HEAD, PUT and DELETE on clean
// cache paths into its one reply value, and writes that framed by
// Content-Length: the bytes net/http's server writes, Date value aside
// (TestWireMatchesNetHTTP on a table, FuzzWireDifferential on arbitrary
// input). Like net/http, it waits for four bytes of the next request
// and hangs up silently on a connection that ends before them. Any
// other request — another method or path, an unclean path, a head not
// received in one piece, one of the headers above, a body on a GET,
// HEAD or DELETE — is handed back, with no byte consumed, to the same
// server, which serves the connection from then on as one of its own
// until a later request hijacks it again. So every mux route, redirect,
// 405, 431 and malformed-request reply stays net/http's.
//
// Wrapping the Handler (middleware, http.TimeoutHandler, a tracing
// wrapper) opts out: a wrapped Handler never hijacks, and net/http's
// server sees every request.
//
// The server's IdleTimeout (or ReadTimeout when it is 0) bounds the
// wait for the next request, ReadTimeout a PUT body from its head on,
// and WriteTimeout a reply from its request's head on, as net/http
// applies them. The server's Close and Shutdown close every owned
// connection waiting for a request at once; one serving a request
// closes after its reply, which says Connection: close, and both return
// only once it has. Those timeouts bound that wait: Shutdown's context
// does not cut it, and Close lets the request finish where it cuts
// net/http's own. A body not read
// to its end and a 413 also close the connection. ConnState reports an
// owned connection as hijacked, and SetKeepAlivesEnabled does not reach
// it. A handler panic on an owned connection closes it and is logged
// as net/http logs one.
//
// Every request on an owned connection carries the context of the one
// that hijacked it without its cancellation: net/http cancels that
// context when the hijacking handler returns, which is at once, and
// after a hijack nothing watches for the client hanging up. A forward
// in flight when a client hangs up therefore runs to its own timeout.
// In exchange, an owned request allocates only what the store keeps. A
// GET, local or forwarded, of the same key or a different one each
// request, and a 304 allocate nothing across the process: the head is
// parsed as bytes in the connection's own storage, a percent-escaped
// tenant or key is unescaped into a second buffer the connection keeps,
// and the escaped path goes to the key's owner as it came. A PUT
// allocates its body once on each node that reads it, and a PUT of a new
// key adds the store's entry and one copy of the key.
//
// Who owns which bytes: the store's public Set copies its value, and
// the handler's path hands the store (Store.SetBytes) the body it has
// just read, which nothing else then holds, so the body is kept rather
// than copied again; the tenant and key are bytes of the request, which
// the store never keeps, and only an entry it creates copies its key. A
// PUT body is read once, on either transport: a known length by
// cluster.ReadFull, into one buffer of its size up to 64 KiB and past
// that into storage that grows as the bytes arrive; a length over the
// cap is a 413 with no byte read; a chunked body (net/http's alone) up
// to one byte past the cap. /v1/stats reports under "owned" the
// connections the Handler took over, the requests it answered on them
// and the requests it handed back, one counter each.
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
// 502 (a forward that timed out after reaching the owner is never sent
// again). Forwarded requests carry X-Talus-Forwarded and are always
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
//	413  store.ErrValueTooLarge: request bodies over the PUT limit
//	     (Config.MaxValueBytes, the one value-size cap)
//	429  store.ErrTenantCapacity (every partition already has a tenant;
//	     retry against an existing one)
//	502  store.ErrBackend (the backing tier behind the store failed)
//	400  store.ErrEmptyTenant/ErrEmptyKey, malformed /v1/record requests,
//	     store.ErrRecording/ErrNotRecording (start while active / stop while idle),
//	     malformed /v1/control weight bodies or ones with no "weight",
//	     adaptive.ErrBadWeight (a negative weight: JSON carries no NaN
//	     or Inf), store.ErrBadTTL and malformed X-Talus-TTL headers; both
//	     control-plane bodies refuse unknown keys, so a misspelled field
//	     is a 400, never a default; a PUT body that ended before its
//	     Content-Length
//	408  a PUT body still short of its Content-Length when the server's
//	     ReadTimeout ran out
//	500  anything else
//
// # Residency stats
//
// /v1/stats reports the live "bytes" total, "maxBytes" when a byte cap
// is set, and "backend": true when a backing tier is attached. Each
// tenant row counts the values that left their lines (evictions,
// expirations, admitDrops when the byte cap refuses a value) and
// the backend traffic that paid for it (backendGets, backendSets);
// cacheHits/cacheMisses/hitRatio count line outcomes over Gets and
// Sets — the control loop's input — not X-Talus-Cache values. The
// top-level "cache" block (accesses, hits, misses, hitRate) sums those
// rows: every access the cache serves is one tenant's Get or Set, so
// it reads what the cache layer counts, without asking it.
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
// are rejected with 400, as is a body with any key but "action", "path"
// and "gzip" ({"gzp":true} does not start an uncompressed recording).
// Successful starts answer {"recording":true,"path":...}; successful
// stops answer {"recording":false,"records":N} with the number of
// accesses captured.
// TestRecordEndpoint and TestHTTPContract pin these bodies.
//
// # The control plane
//
// GET /v1/control is read-only and always served: the control loop's
// state (epoch count, measured curve churn, the configured epoch budget
// and interval, per-partition allocations and weights, and "last_error"
// when the latest epoch step failed and left the allocation standing)
// plus one row per tenant (weight, current allocation).
// There is no allocator to name: every epoch hill-climbs on the hulls. Mutation is gated like
// recording: unless the handler is configured with Config.Control
// (talus-serve -control), PUT /v1/control/tenants/{tenant} refuses
// every request with status 403 and the exact body
//
//	{"error": "control disabled: the server was started without the control plane enabled"}
//
// With the gate open, the PUT body {"weight": w} (w ≥ 0) adjusts the
// named tenant's objective weight live — the next epoch allocates
// under the new objective — answering {"tenant":...,"weight":w}. A body
// without "weight" ({} included) or with any other key is 400 and
// changes nothing; unknown tenants are 404 and never minted.
package serve
