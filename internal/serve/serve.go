package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"talus/internal/adaptive"
	"talus/internal/cluster"
	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/store"
)

// DefaultMaxValueBytes caps PUT bodies when the caller does not choose
// a limit: 1 MiB, generous for cache values while keeping a misbehaving
// client from buffering unbounded memory server-side.
const DefaultMaxValueBytes = 1 << 20

// Config parameterizes the handler.
type Config struct {
	// MaxValueBytes caps PUT bodies; 0 selects DefaultMaxValueBytes.
	MaxValueBytes int64
	// RecordDir is the directory trace captures may be written into.
	// Empty disables POST /v1/record entirely: the endpoint writes
	// server-side files, so it must be an explicit operator decision,
	// never a default an unauthenticated client can reach. Requests name
	// a bare file inside the directory; path separators and ".." are
	// rejected.
	RecordDir string
	// Control enables PUT /v1/control/tenants/{tenant}: live adjustment
	// of tenant objective weights. Off by default and gated exactly like
	// /v1/record — reweighting tenants shifts cache capacity between
	// them, so it must be an explicit operator decision, never a default
	// an unauthenticated client can reach. GET /v1/control (read-only
	// state) is always served.
	Control bool
	// Cluster, when non-nil, turns on thin-proxy mode: cache requests
	// whose (tenant, key) this node does not own on the consistent-hash
	// ring are forwarded to their owner and the owner's response is
	// relayed verbatim. Nil serves everything locally (single-node
	// mode). GET /v1/cluster reports the ring either way.
	Cluster *cluster.Cluster
}

// Handler serves the store over HTTP.
type Handler struct {
	st        *store.Store
	maxValue  int64
	recordDir string
	control   bool
	cluster   *cluster.Cluster
	node      string // the X-Talus-Node value, cleaned as net/http cleans one
	mux       *http.ServeMux

	ownMu  sync.Mutex
	owners map[*http.Server]*owner // the connections served in wire.go, per server
	// What the owned connections did, for /v1/stats: the connections
	// taken over, the requests answered on them, the requests handed back.
	conns, requests, handBacks atomic.Int64
}

// cachePrefix starts every cache route: /v1/cache/{tenant}/{key...}.
const cachePrefix = "/v1/cache/"

// NewHandler builds the route table over st.
func NewHandler(st *store.Store, cfg Config) *Handler {
	if cfg.MaxValueBytes <= 0 {
		cfg.MaxValueBytes = DefaultMaxValueBytes
	}
	node := string(cluster.Clean([]byte(st.Node().ID)))
	h := &Handler{st: st, maxValue: cfg.MaxValueBytes, recordDir: cfg.RecordDir, control: cfg.Control,
		cluster: cfg.Cluster, node: node, mux: http.NewServeMux()}
	// A cache request that can start an owned connection hands it to h
	// (wire.go); any other is answered here.
	byPattern := func(w http.ResponseWriter, r *http.Request) {
		req := newRequest(r, []byte(r.URL.EscapedPath()), []byte(r.PathValue("tenant")), []byte(r.PathValue("key")))
		if !h.own(w, r, req) {
			h.serveCache(w, &req, new(cluster.Reply))
		}
	}
	h.mux.HandleFunc("GET "+cachePrefix+"{tenant}/{key...}", byPattern)
	h.mux.HandleFunc("PUT "+cachePrefix+"{tenant}/{key...}", byPattern)
	h.mux.HandleFunc("DELETE "+cachePrefix+"{tenant}/{key...}", byPattern)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /v1/curves", h.curves)
	h.mux.HandleFunc("GET /v1/cluster", h.clusterState)
	h.mux.HandleFunc("GET /v1/control", h.controlState)
	h.mux.HandleFunc("PUT /v1/control/tenants/{tenant}", h.controlTenant)
	h.mux.HandleFunc("POST /v1/record", h.record)
	return h
}

// ServeHTTP implements http.Handler: the mux dispatches every request.
// When h is its server's own Handler, a clean bodyless cache request
// also hands its connection to h, which serves the cache requests that
// follow on it itself (wire.go).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// reqBytes is the storage an owned request's path, tenant and key are
// slices of while it is served: the bytes it arrived in, and the
// segments of its path that were unescaped.
type reqBytes struct{ head, unescaped []byte }

// cachePath splits an escaped /v1/cache/{tenant}/{key...} path into its
// unescaped tenant and key, the way the mux's pattern does: the tenant
// is one segment, the key the rest, each unescaped on its own (so
// "a%2Fb" is tenant "a/b"). ok is false for any other path and for a
// path the mux would redirect to its cleaned form. A segment without
// escapes is a slice of p, one with escapes of b.unescaped; p is left
// as it is.
func (b *reqBytes) cachePath(p []byte) (tenant, key []byte, ok bool) {
	rest, ok := bytes.CutPrefix(p, []byte(cachePrefix))
	if !ok {
		return nil, nil, false
	}
	i := bytes.IndexByte(rest, '/')
	if i <= 0 || !isClean(p) {
		return nil, nil, false
	}
	b.unescaped = b.unescaped[:0]
	tenant = b.unescape(rest[:i])
	key = b.unescape(rest[i+1:])
	return tenant, key, true
}

// isClean reports whether the mux would serve p, a cache path, as is:
// path.Clean leaves it unchanged but for a trailing slash, which the
// mux keeps. That is, no segment is "." or "..", and none but the last
// is empty.
func isClean(p []byte) bool {
	for rest, more := p[1:], true; more; {
		var seg []byte
		seg, rest, more = bytes.Cut(rest, []byte{'/'})
		if string(seg) == "." || string(seg) == ".." || (len(seg) == 0 && more) {
			return false
		}
	}
	return true
}

// unescape undoes the path escaping of seg into b.unescaped, keeping
// seg as it is when it has no escape or is not validly escaped, as the
// mux does.
func (b *reqBytes) unescape(seg []byte) []byte {
	if bytes.IndexByte(seg, '%') < 0 {
		return seg
	}
	start := len(b.unescaped)
	for i := 0; i < len(seg); i++ {
		c := seg[i]
		if c == '%' {
			if i+2 >= len(seg) || !isHex(seg[i+1]) || !isHex(seg[i+2]) {
				b.unescaped = b.unescaped[:start]
				return seg
			}
			c = unhex(seg[i+1])<<4 | unhex(seg[i+2])
			i += 2
		}
		b.unescaped = append(b.unescaped, c)
	}
	return b.unescaped[start:]
}

// unhex is the value of the hex digit c.
func unhex(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c | 0x20 - 'a' + 10 // 'A' | 0x20 is 'a'
}

// request is one cache request, as either transport hands it to the
// cache path. Its path, tenant and key are slices of a reqBytes.
type request struct {
	cluster.Request // what the hop relays; Body is read by put
	tenant, key     []byte
	forwarded       bool // X-Talus-Forwarded has a value: the request took its hop
	ctx             context.Context
	body            io.Reader // a PUT's body
	length          int64     // the body's length; -1 when it is chunked
}

// newRequest reads the cache request net/http's server parsed, on its
// escaped path, tenant and key. Of each header, the first value counts,
// as with Header.Get.
func newRequest(r *http.Request, path, tenant, key []byte) request {
	req := request{
		Request: cluster.Request{Method: r.Method, Path: path},
		tenant:  tenant, key: key, forwarded: r.Header.Get(cluster.ForwardedHeader) != "",
		ctx: r.Context(), body: r.Body, length: r.ContentLength,
	}
	for i, k := range cluster.RequestHeaders {
		req.Header[i] = []byte(r.Header.Get(k))
	}
	return req
}

// serveCache answers a cache request net/http's server parsed, through
// w, filling rep.
func (h *Handler) serveCache(w http.ResponseWriter, req *request, rep *cluster.Reply) {
	h.cache(req, rep)
	writeReply(w, rep)
	rep.Reset()
}

// writeReply copies rep into w, its header values in one allocation, each
// a one-element slice of it. Content-Length frames every reply whose
// status allows a body, so net/http never chunks one: the framing the
// owned wire writes. A 413 is the handler refusing a body it did not
// read to its end, and says Connection: close.
func writeReply(w http.ResponseWriter, rep *cluster.Reply) {
	hdr := w.Header()
	fields := [...]struct{ k, v string }{{"Content-Length", ""},
		{"Content-Type", rep.ContentType}, {"Etag", string(rep.ETag)}, {"X-Talus-Cache", rep.Cache}, {"X-Talus-Node", rep.Node}}
	if bodyAllowed(rep.Status) {
		fields[0].v = strconv.Itoa(len(rep.Body))
	}
	vals := make([]string, len(fields))
	for i, f := range fields {
		if f.v != "" {
			vals[i] = f.v
			hdr[f.k] = vals[i : i+1 : i+1]
		}
	}
	if rep.Status == http.StatusRequestEntityTooLarge {
		hdr["Connection"] = []string{"close"}
	}
	w.WriteHeader(rep.Status)
	if len(rep.Body) > 0 {
		w.Write(rep.Body)
	}
}

// cache answers one cache request into rep, relayed from the key's owner
// or served locally; HEAD is served as GET. A PUT's body is read first,
// so that a relayed PUT carries it.
func (h *Handler) cache(req *request, rep *cluster.Reply) {
	if req.Method == http.MethodPut {
		body, err := readBody(req.body, req.length, h.maxValue)
		if err != nil {
			replyErr(rep, err)
			return
		}
		req.Body = body
	}
	if h.proxied(req, rep) {
		return
	}
	rep.Node = h.node
	switch req.Method {
	case http.MethodPut:
		h.put(req, rep)
	case http.MethodDelete:
		h.delete(req, rep)
	default:
		h.get(req, rep)
	}
}

// statusOf maps store boundary errors onto HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, store.ErrValueTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, store.ErrTenantCapacity):
		// A client-side condition, not a server fault: the tenant roster
		// is full, so minting another is refused — 429, the 4xx that says
		// "stop asking", keeps unauthenticated clients from reading a
		// 5xx as a server bug to retry against.
		return http.StatusTooManyRequests
	case errors.Is(err, store.ErrBackend):
		return http.StatusBadGateway
	case errors.Is(err, store.ErrEmptyTenant), errors.Is(err, store.ErrEmptyKey),
		errors.Is(err, store.ErrBadTTL), errors.Is(err, adaptive.ErrBadWeight),
		errors.Is(err, errBodyCut),
		errors.Is(err, store.ErrRecording), errors.Is(err, store.ErrNotRecording):
		return http.StatusBadRequest
	case errors.Is(err, errBodyTimeout):
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}

// writeErr emits a JSON error body with the mapped status.
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), map[string]string{"error": err.Error()})
}

// writeJSON marshals v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var rep cluster.Reply
	replyJSON(&rep, status, v)
	writeReply(w, &rep)
}

// replyErr makes rep a JSON error body with the mapped status.
func replyErr(rep *cluster.Reply, err error) {
	replyJSON(rep, statusOf(err), map[string]string{"error": err.Error()})
}

// replyJSON makes rep v marshalled, with the given status.
func replyJSON(rep *cluster.Reply, status int, v any) {
	body, err := json.Marshal(v)
	if err == nil {
		body = append(body, '\n')
	}
	rep.Status, rep.ContentType, rep.Body = status, "application/json", body
}

// outcome is the X-Talus-Cache value of the store's hit flag: on a GET,
// "hit" means the body was served from the value resident in the cache
// (never a 404, never a backend read); on a PUT, that the key's line was
// already resident.
func outcome(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// etagOf derives a value's entity tag from its bytes: a strong,
// quoted, 16-hex-digit FNV-1a hash. Identical bytes always produce
// the identical tag — across requests, processes, and nodes — which is
// what lets cluster clients and the router revalidate with
// If-None-Match instead of re-downloading values.
func etagOf(value []byte) (tag [18]byte) {
	h := hash.FNV64a(value)
	tag[0] = '"'
	const hexdigits = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		tag[1+i] = hexdigits[h>>(60-4*uint(i))&0xF]
	}
	tag[17] = '"'
	return tag
}

// etagMatches reports whether an If-None-Match header value matches
// tag: "*" matches any current entity, otherwise any listed tag must
// equal it byte for byte (weak "W/" prefixes are ignored for the
// comparison, as RFC 9110 prescribes for If-None-Match).
func etagMatches(header, tag []byte) bool {
	for len(header) > 0 {
		var part []byte
		part, header, _ = bytes.Cut(header, []byte(","))
		part = bytes.TrimPrefix(bytes.TrimSpace(part), []byte("W/"))
		if string(part) == "*" || bytes.Equal(part, tag) {
			return true
		}
	}
	return false
}

// ttlOf parses an X-Talus-TTL request header value: a non-negative
// integer number of seconds. Absent (or 0) defers to the store's
// DefaultTTL.
func ttlOf(v []byte) (time.Duration, error) {
	if len(v) == 0 {
		return 0, nil
	}
	secs, err := strconv.ParseInt(string(v), 10, 32)
	if err != nil || secs < 0 {
		return 0, fmt.Errorf("%w: X-Talus-TTL %q (want non-negative integer seconds)", store.ErrBadTTL, v)
	}
	return time.Duration(secs) * time.Second, nil
}

func (h *Handler) get(req *request, rep *cluster.Reply) {
	value, hit, err := h.st.GetBytes(req.tenant, req.key)
	rep.Cache = outcome(hit)
	if err != nil {
		replyErr(rep, err)
		return
	}
	tag := etagOf(value)
	rep.ETag = append(rep.ETag[:0], tag[:]...)
	if inm := req.Header[cluster.IfNoneMatch]; len(inm) > 0 && etagMatches(inm, tag[:]) {
		// The client's copy is current: 304 with the tag (and the cache
		// outcome — the access happened) but no body, which is the whole
		// point: a router revalidating hot values moves ~60 bytes of
		// headers instead of the value.
		rep.Status = http.StatusNotModified
		return
	}
	rep.Status, rep.ContentType, rep.Body = http.StatusOK, "application/octet-stream", value
}

func (h *Handler) put(req *request, rep *cluster.Reply) {
	ttl, err := ttlOf(req.Header[cluster.TTL])
	if err != nil {
		replyErr(rep, err)
		return
	}
	// The store keeps the body readBody read for this request.
	hit, err := h.st.SetBytes(req.tenant, req.key, req.Body, ttl)
	if err != nil {
		replyErr(rep, err)
		return
	}
	rep.Cache = outcome(hit)
	tag := etagOf(req.Body)
	rep.ETag = append(rep.ETag[:0], tag[:]...)
	rep.Status = http.StatusNoContent
}

// The client's faults in sending a PUT body, which statusOf answers
// with a 4xx.
var (
	errBodyCut     = errors.New("request body ended before its Content-Length")
	errBodyTimeout = errors.New("request body timed out before its Content-Length")
)

// readBody reads a PUT body of length bytes, -1 when unknown, translating
// its read errors into typed ones so the handler's status mapping stays
// in one place. A length over maxValue is the store's ErrValueTooLarge
// without a byte read; a known one is read by cluster.ReadFull, into
// storage that grows as the bytes arrive, and a body of unknown length
// up to one byte past maxValue.
func readBody(r io.Reader, length, maxValue int64) ([]byte, error) {
	var buf []byte
	var err error
	switch {
	case length > maxValue:
	case length < 0:
		buf, err = io.ReadAll(io.LimitReader(r, maxValue+1))
	default:
		buf, err = cluster.ReadFull(r, nil, int(length))
	}
	switch {
	case length > maxValue || int64(len(buf)) > maxValue:
		return nil, fmt.Errorf("%w: body over %d bytes", store.ErrValueTooLarge, maxValue)
	case err == nil:
		return buf, nil
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF):
		return nil, errBodyCut
	case errors.Is(err, os.ErrDeadlineExceeded):
		return nil, errBodyTimeout
	}
	return nil, err
}

func (h *Handler) delete(req *request, rep *cluster.Reply) {
	existed, err := h.st.DeleteBytes(req.tenant, req.key)
	if err == nil && !existed {
		err = fmt.Errorf("%w: %q", store.ErrNotFound, req.key)
	}
	if err != nil {
		replyErr(rep, err)
		return
	}
	rep.Status = http.StatusNoContent
}

// proxied implements thin-proxy mode for one cache request. It returns
// true when rep is filled — relayed from the owning peer or a 502 after
// the forward failed — and false when this node should serve locally:
// no cluster is configured, the request already took its one forwarding
// hop (ForwardedHeader), or the ring says this node owns the key.
func (h *Handler) proxied(req *request, rep *cluster.Reply) bool {
	if h.cluster == nil || req.forwarded {
		return false
	}
	owner := h.cluster.Owner(req.tenant, req.key)
	if owner == h.cluster.Self() {
		return false
	}
	if err := h.cluster.Relay(req.ctx, owner, &req.Request, rep); err != nil {
		replyJSON(rep, http.StatusBadGateway, map[string]string{
			"error": fmt.Sprintf("forward to owner %s failed: %v", owner, err)})
	}
	return true
}

// clusterNode is one member in the /v1/cluster payload.
type clusterNode struct {
	Node  string  `json:"node"`
	Share float64 `json:"share"` // analytic fraction of the ring's hash space
	Self  bool    `json:"self,omitempty"`
}

// clusterResponse is the /v1/cluster payload. Single-node servers
// report clustered=false with only their own identity, so monitoring
// can scrape the endpoint without knowing the deployment shape.
type clusterResponse struct {
	Clustered bool            `json:"clustered"`
	Self      string          `json:"self,omitempty"`
	VNodes    int             `json:"vnodes,omitempty"`
	Seed      uint64          `json:"seed,omitempty"`
	Node      store.NodeStats `json:"node"`
	Nodes     []clusterNode   `json:"nodes,omitempty"`
}

func (h *Handler) clusterState(w http.ResponseWriter, r *http.Request) {
	resp := clusterResponse{Node: h.st.Node()}
	if h.cluster != nil {
		ring := h.cluster.Ring()
		shares := ring.Shares()
		resp.Clustered = true
		resp.Self = h.cluster.Self()
		resp.VNodes = ring.VNodes()
		resp.Seed = ring.Seed()
		for _, n := range ring.Nodes() {
			resp.Nodes = append(resp.Nodes, clusterNode{Node: n, Share: shares[n], Self: n == resp.Self})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the /v1/stats payload.
type statsResponse struct {
	Tenants       []store.TenantStats `json:"tenants"`
	Epochs        int                 `json:"epochs"`
	CapacityLines int64               `json:"capacityLines"`
	Cache         cacheStats          `json:"cache"`
	Recording     bool                `json:"recording"`
	Bytes         int64               `json:"bytes"`              // value bytes held across all tenants
	MaxBytes      int64               `json:"maxBytes,omitempty"` // configured byte cap (absent without one)
	Backend       bool                `json:"backend"`            // a backing tier is configured
	Node          store.NodeStats     `json:"node"`               // serving-instance identity
	Owned         wireCounts          `json:"owned"`              // what the connections the handler served itself did
}

// cacheStats sums the tenants' cache outcomes: every access the cache
// serves is one tenant's Get or Set.
type cacheStats struct {
	Accesses int64   `json:"accesses"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hitRate"`
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	ac := h.st.Cache()
	resp := statsResponse{
		Tenants:       h.st.StatsAll(),
		Epochs:        ac.Epochs(),
		CapacityLines: ac.Shadowed().Inner().PartitionableCapacity(),
		Recording:     h.st.Recording(),
		Bytes:         h.st.Bytes(),
		MaxBytes:      h.st.MaxBytes(),
		Backend:       h.st.Backend() != nil,
		Node:          h.st.Node(),
		Owned:         wireCounts{h.conns.Load(), h.requests.Load(), h.handBacks.Load()},
	}
	c := &resp.Cache
	for _, t := range resp.Tenants {
		c.Hits += t.CacheHits
		c.Misses += t.CacheMisses
	}
	if c.Accesses = c.Hits + c.Misses; c.Accesses > 0 {
		c.HitRate = float64(c.Hits) / float64(c.Accesses)
	}
	writeJSON(w, http.StatusOK, resp)
}

// curvesResponse is the /v1/curves payload.
type curvesResponse struct {
	Tenants []tenantCurves `json:"tenants"`
	Epochs  int            `json:"epochs"`
}

type tenantCurves struct {
	Tenant     string        `json:"tenant"`
	AllocLines int64         `json:"allocLines"`
	Measured   []curve.Point `json:"measured,omitempty"`
	Hull       []curve.Point `json:"hull,omitempty"`
}

func (h *Handler) curves(w http.ResponseWriter, r *http.Request) {
	ac := h.st.Cache()
	allocs := ac.Allocations()
	resp := curvesResponse{Epochs: ac.Epochs()}
	for _, st := range h.st.StatsAll() {
		tc := tenantCurves{Tenant: st.Tenant}
		if st.Partition < len(allocs) {
			tc.AllocLines = allocs[st.Partition]
		}
		measured, hulled, err := h.st.Curves(st.Tenant)
		if err != nil {
			writeErr(w, err)
			return
		}
		tc.Measured = measured.Points()
		tc.Hull = hulled.Points()
		resp.Tenants = append(resp.Tenants, tc)
	}
	writeJSON(w, http.StatusOK, resp)
}

// controlState serves GET /v1/control: the control loop's state
// (configured epoch budget and interval, last churn measurement, last
// epoch error) plus every tenant's weight, bounds, and allocation.
// Read-only, so it is always available, like /v1/stats.
func (h *Handler) controlState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.st.Control())
}

// controlTenantRequest is the PUT /v1/control/tenants/{tenant} body.
// Weight is a pointer so a body without it is told apart from a weight
// of 0: reweighting a tenant to nothing must be said, not defaulted.
type controlTenantRequest struct {
	Weight *float64 `json:"weight"`
}

// decodeBody decodes a control-plane JSON body into v, refusing
// unknown fields: a misspelled key must be a 400, not a silently
// dropped setting.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// controlTenant serves PUT /v1/control/tenants/{tenant}: sets a
// registered tenant's objective weight. Gated behind Config.Control the
// way /v1/record is gated behind its record directory.
func (h *Handler) controlTenant(w http.ResponseWriter, r *http.Request) {
	if !h.control {
		writeJSON(w, http.StatusForbidden, map[string]string{
			"error": "control disabled: the server was started without the control plane enabled"})
		return
	}
	var req controlTenantRequest
	err := decodeBody(w, r, &req)
	if err == nil && req.Weight == nil {
		err = errors.New(`body has no "weight"`)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad control request: " + err.Error()})
		return
	}
	weight := *req.Weight
	tenant := r.PathValue("tenant")
	if err := h.st.SetTenantWeight(tenant, weight); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "weight": weight})
}

// recordRequest is the /v1/record body.
type recordRequest struct {
	Action string `json:"action"` // "start" | "stop"
	Path   string `json:"path"`   // trace file name inside the record dir (start)
	Gzip   bool   `json:"gzip"`
}

func (h *Handler) record(w http.ResponseWriter, r *http.Request) {
	if h.recordDir == "" {
		writeJSON(w, http.StatusForbidden, map[string]string{
			"error": "recording disabled: the server was started without a record directory"})
		return
	}
	var req recordRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad record request: " + err.Error()})
		return
	}
	switch req.Action {
	case "start":
		// The client names a file, never a path: this endpoint writes
		// server-side, so anything that escapes the record dir is refused.
		if req.Path == "" || req.Path != filepath.Base(req.Path) || strings.HasPrefix(req.Path, ".") {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("record start needs a bare file name inside the record dir, got %q", req.Path)})
			return
		}
		path := filepath.Join(h.recordDir, req.Path)
		if err := h.st.StartRecording(path, req.Gzip); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"recording": true, "path": path})
	case "stop":
		count, err := h.st.StopRecording()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"recording": false, "records": count})
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("unknown record action %q (valid: start, stop)", req.Action)})
	}
}
