package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

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
	nodeValue []string // the X-Talus-Node value, len == cap
	mux       *http.ServeMux

	ownMu  sync.Mutex
	owners map[*http.Server]*owner // the connections served in wire.go, per server
}

// Header values stamped on cache responses, preallocated so a response
// reuses them instead of allocating a one-element slice per
// Header().Set. len == cap, so an append by a later writer copies.
var (
	hitValue   = []string{"hit"}
	missValue  = []string{"miss"}
	octetValue = []string{"application/octet-stream"}
	jsonValue  = []string{"application/json"}
)

// cachePrefix starts every cache route: /v1/cache/{tenant}/{key...}.
const cachePrefix = "/v1/cache/"

// NewHandler builds the route table over st.
func NewHandler(st *store.Store, cfg Config) *Handler {
	if cfg.MaxValueBytes <= 0 {
		cfg.MaxValueBytes = DefaultMaxValueBytes
	}
	h := &Handler{st: st, maxValue: cfg.MaxValueBytes, recordDir: cfg.RecordDir, control: cfg.Control,
		cluster: cfg.Cluster, nodeValue: []string{st.Node().ID}, mux: http.NewServeMux()}
	// ServeHTTP answers clean cache paths itself; the mux keeps the cache
	// patterns for what it alone decides: 405 with Allow for other
	// methods, and the redirects of unclean paths.
	byPattern := func(w http.ResponseWriter, r *http.Request) {
		h.cache(w, r, r.PathValue("tenant"), r.PathValue("key"))
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

// ServeHTTP implements http.Handler. A cache request on a clean path is
// dispatched here, exactly as the mux's pattern would, without paying
// for its matching; everything else goes through the mux. When h is
// its server's own Handler, a clean bodyless cache request also hands
// its connection to h, which serves the cache requests that follow on
// it itself (wire.go).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete:
		if tenant, key, ok := cachePath(r.URL.EscapedPath()); ok {
			if !h.own(w, r, tenant, key) {
				h.cache(w, r, tenant, key)
			}
			return
		}
	}
	h.mux.ServeHTTP(w, r)
}

// cachePath splits an escaped /v1/cache/{tenant}/{key...} path into its
// unescaped tenant and key, the way the mux's pattern does: the tenant
// is one segment, the key the rest, each unescaped on its own (so
// "a%2Fb" is tenant "a/b"). ok is false for any other path and for a
// path the mux would redirect to its cleaned form.
func cachePath(p string) (tenant, key string, ok bool) {
	rest, ok := strings.CutPrefix(p, cachePrefix)
	if !ok {
		return "", "", false
	}
	i := strings.IndexByte(rest, '/')
	if i <= 0 || !isClean(p) {
		return "", "", false
	}
	return unescape(rest[:i]), unescape(rest[i+1:]), true
}

// isClean reports whether the mux would serve p as is: path.Clean
// leaves it unchanged but for a trailing slash, which the mux keeps.
func isClean(p string) bool {
	np := path.Clean(p)
	return np == p || (len(p) == len(np)+1 && p[len(p)-1] == '/' && strings.HasPrefix(p, np))
}

// unescape undoes path escaping, keeping s as is when it is not validly
// escaped, as the mux does.
func unescape(s string) string {
	u, err := url.PathUnescape(s)
	if err != nil {
		return s
	}
	return u
}

// cache serves one cache request; HEAD is served as GET.
func (h *Handler) cache(w http.ResponseWriter, r *http.Request, tenant, key string) {
	switch r.Method {
	case http.MethodPut:
		h.put(w, r, tenant, key)
	case http.MethodDelete:
		h.delete(w, r, tenant, key)
	default:
		h.get(w, r, tenant, key)
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
	case errors.Is(err, store.ErrInfeasibleBounds):
		// The operator promised this tenant a floor the node cannot
		// hold beside the tenants already here: a conflict with current
		// state, not a server fault, and retrying will not change it.
		return http.StatusConflict
	case errors.Is(err, store.ErrBackend):
		return http.StatusBadGateway
	case errors.Is(err, store.ErrEmptyTenant), errors.Is(err, store.ErrEmptyKey),
		errors.Is(err, store.ErrBadTTL),
		errors.Is(err, store.ErrRecording), errors.Is(err, store.ErrNotRecording):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// writeErr emits a JSON error body with the mapped status.
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), map[string]string{"error": err.Error()})
}

// writeJSON marshals v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonValue
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// hitHeader reports the store's hit flag without disturbing the
// response body: on a GET, "hit" means the body was served from the
// value resident in the cache (never a 404, never a backend read); on a
// PUT, that the key's line was already resident.
func hitHeader(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header()["X-Talus-Cache"] = hitValue
	} else {
		w.Header()["X-Talus-Cache"] = missValue
	}
}

// etagOf derives a value's entity tag from its bytes: a strong,
// quoted, 16-hex-digit FNV-1a hash. Identical bytes always produce
// the identical tag — across requests, processes, and nodes — which is
// what lets cluster clients and the router revalidate with
// If-None-Match instead of re-downloading values.
func etagOf(value []byte) string {
	h := hash.FNV64a(value)
	var buf [18]byte
	buf[0] = '"'
	const hexdigits = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		buf[1+i] = hexdigits[h>>(60-4*uint(i))&0xF]
	}
	buf[17] = '"'
	return string(buf[:])
}

// etagMatches reports whether an If-None-Match header value matches
// etag: "*" matches any current entity, otherwise any listed tag must
// equal it byte for byte (weak "W/" prefixes are ignored for the
// comparison, as RFC 9110 prescribes for If-None-Match).
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// ttlOf parses the X-Talus-TTL request header: a non-negative integer
// number of seconds. Absent (or 0) defers to the store's DefaultTTL.
func ttlOf(r *http.Request) (time.Duration, error) {
	v := r.Header.Get("X-Talus-Ttl")
	if v == "" {
		return 0, nil
	}
	secs, err := strconv.ParseInt(v, 10, 32)
	if err != nil || secs < 0 {
		return 0, fmt.Errorf("%w: X-Talus-TTL %q (want non-negative integer seconds)", store.ErrBadTTL, v)
	}
	return time.Duration(secs) * time.Second, nil
}

func (h *Handler) get(w http.ResponseWriter, r *http.Request, tenant, key string) {
	if h.proxied(w, r, tenant, key, nil) {
		return
	}
	w.Header()["X-Talus-Node"] = h.nodeValue
	value, hit, err := h.st.Get(tenant, key)
	hitHeader(w, hit)
	if err != nil {
		writeErr(w, err)
		return
	}
	etag := etagOf(value)
	w.Header()["Etag"] = []string{etag}
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		// The client's copy is current: 304 with the tag (and the cache
		// outcome — the access happened) but no body, which is the whole
		// point: a router revalidating hot values moves ~60 bytes of
		// headers instead of the value.
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header()["Content-Type"] = octetValue
	w.Write(value)
}

func (h *Handler) put(w http.ResponseWriter, r *http.Request, tenant, key string) {
	body, err := readBody(w, r, h.maxValue)
	if err != nil {
		writeErr(w, err)
		return
	}
	if h.proxied(w, r, tenant, key, body) {
		return
	}
	w.Header()["X-Talus-Node"] = h.nodeValue
	ttl, err := ttlOf(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	hit, err := h.st.SetTTL(tenant, key, body, ttl)
	if err != nil {
		writeErr(w, err)
		return
	}
	hitHeader(w, hit)
	w.Header()["Etag"] = []string{etagOf(body)}
	w.WriteHeader(http.StatusNoContent)
}

// readBody drains at most maxValue bytes of request body, translating
// the over-limit error into the store's typed ErrValueTooLarge so the
// handler's status mapping stays in one place.
func readBody(w http.ResponseWriter, r *http.Request, maxValue int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxValue)
	defer body.Close()
	buf, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, fmt.Errorf("%w: body over %d bytes", store.ErrValueTooLarge, tooBig.Limit)
		}
		return nil, err
	}
	return buf, nil
}

func (h *Handler) delete(w http.ResponseWriter, r *http.Request, tenant, key string) {
	if h.proxied(w, r, tenant, key, nil) {
		return
	}
	w.Header()["X-Talus-Node"] = h.nodeValue
	existed, err := h.st.Delete(tenant, key)
	if err != nil {
		writeErr(w, err)
		return
	}
	if !existed {
		writeErr(w, fmt.Errorf("%w: %q", store.ErrNotFound, key))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// proxied implements thin-proxy mode for one cache request. It returns
// true when the response has been written — either relayed from the
// owning peer or a 502 after the forward failed — and false when this
// node should serve locally: no cluster is configured, the request
// already took its one forwarding hop (ForwardedHeader), or the ring
// says this node owns the key.
func (h *Handler) proxied(w http.ResponseWriter, r *http.Request, tenant, key string, body []byte) bool {
	if h.cluster == nil || r.Header.Get(cluster.ForwardedHeader) != "" {
		return false
	}
	owner := h.cluster.Owner(tenant, key)
	if owner == h.cluster.Self() {
		return false
	}
	if err := h.cluster.Relay(r.Context(), w, r.Method, owner, r.URL.EscapedPath(), body, r.Header); err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]string{
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
	Cache         *cacheStats         `json:"cache,omitempty"`
	Recording     bool                `json:"recording"`
	Bytes         int64               `json:"bytes"`              // value bytes held across all tenants
	MaxBytes      int64               `json:"maxBytes,omitempty"` // configured byte cap (absent without one)
	Backend       bool                `json:"backend"`            // a backing tier is configured
	Node          store.NodeStats     `json:"node"`               // serving-instance identity
}

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
	}
	if cs, ok := h.st.CacheStats(); ok {
		resp.Cache = &cacheStats{Accesses: cs.Accesses, Hits: cs.Hits, Misses: cs.Misses, HitRate: cs.HitRate()}
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
	if weight < 0 {
		// JSON cannot carry NaN/Inf, so a sign check is the whole of the
		// value validation the adaptive layer would otherwise reject.
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("weight %g must be non-negative", weight)})
		return
	}
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
