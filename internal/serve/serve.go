package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"talus/internal/cluster"
	"talus/internal/curve"
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
	nodeID    string
	mux       *http.ServeMux
}

// NewHandler builds the route table over st.
func NewHandler(st *store.Store, cfg Config) *Handler {
	if cfg.MaxValueBytes <= 0 {
		cfg.MaxValueBytes = DefaultMaxValueBytes
	}
	h := &Handler{st: st, maxValue: cfg.MaxValueBytes, recordDir: cfg.RecordDir, control: cfg.Control,
		cluster: cfg.Cluster, nodeID: st.Node().ID, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /v1/cache/{tenant}/{key...}", h.get)
	h.mux.HandleFunc("PUT /v1/cache/{tenant}/{key...}", h.put)
	h.mux.HandleFunc("DELETE /v1/cache/{tenant}/{key...}", h.delete)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /v1/curves", h.curves)
	h.mux.HandleFunc("GET /v1/cluster", h.clusterState)
	h.mux.HandleFunc("GET /v1/control", h.controlState)
	h.mux.HandleFunc("PUT /v1/control/tenants/{tenant}", h.controlTenant)
	h.mux.HandleFunc("POST /v1/record", h.record)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

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
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// hitHeader reports the store's hit flag without disturbing the
// response body: on a GET, "hit" means the body was served from the
// value resident in the cache (never a 404, never a backend read); on a
// PUT, that the key's line was already resident.
func hitHeader(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("X-Talus-Cache", "hit")
	} else {
		w.Header().Set("X-Talus-Cache", "miss")
	}
}

// etagOf derives a value's entity tag from its bytes: a strong,
// quoted, 16-hex-digit FNV-1a hash. Identical bytes always produce
// the identical tag — across requests, processes, and nodes — which is
// what lets cluster clients and the router revalidate with
// If-None-Match instead of re-downloading values.
func etagOf(value []byte) string {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range value {
		h ^= uint64(b)
		h *= prime64
	}
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
	v := r.Header.Get("X-Talus-TTL")
	if v == "" {
		return 0, nil
	}
	secs, err := strconv.ParseInt(v, 10, 32)
	if err != nil || secs < 0 {
		return 0, fmt.Errorf("%w: X-Talus-TTL %q (want non-negative integer seconds)", store.ErrBadTTL, v)
	}
	return time.Duration(secs) * time.Second, nil
}

func (h *Handler) get(w http.ResponseWriter, r *http.Request) {
	tenant, key := r.PathValue("tenant"), r.PathValue("key")
	if h.proxied(w, r, tenant, key, nil) {
		return
	}
	w.Header().Set("X-Talus-Node", h.nodeID)
	value, hit, err := h.st.Get(tenant, key)
	hitHeader(w, hit)
	if err != nil {
		writeErr(w, err)
		return
	}
	etag := etagOf(value)
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		// The client's copy is current: 304 with the tag (and the cache
		// outcome — the access happened) but no body, which is the whole
		// point: a router revalidating hot values moves ~60 bytes of
		// headers instead of the value.
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(value)
}

func (h *Handler) put(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, h.maxValue)
	if err != nil {
		writeErr(w, err)
		return
	}
	tenant, key := r.PathValue("tenant"), r.PathValue("key")
	if h.proxied(w, r, tenant, key, body) {
		return
	}
	w.Header().Set("X-Talus-Node", h.nodeID)
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
	w.Header().Set("ETag", etagOf(body))
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

func (h *Handler) delete(w http.ResponseWriter, r *http.Request) {
	tenant, key := r.PathValue("tenant"), r.PathValue("key")
	if h.proxied(w, r, tenant, key, nil) {
		return
	}
	w.Header().Set("X-Talus-Node", h.nodeID)
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

// forwardedRequestHeaders are the cache-request headers a proxying node
// relays to the owner; forwardedResponseHeaders come back the other
// way. Kept to the protocol's own vocabulary — hop-by-hop headers and
// client connection metadata stay on their own hop.
var forwardedRequestHeaders = []string{"If-None-Match", "X-Talus-TTL", "Content-Type"}
var forwardedResponseHeaders = []string{"X-Talus-Cache", "X-Talus-Node", "ETag", "Content-Type"}

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
	hdr := make(http.Header, len(forwardedRequestHeaders))
	for _, k := range forwardedRequestHeaders {
		if v := r.Header.Get(k); v != "" {
			hdr.Set(k, v)
		}
	}
	resp, err := h.cluster.Forward(r.Context(), r.Method, owner, r.URL.EscapedPath(), body, hdr)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]string{
			"error": fmt.Sprintf("forward to owner %s failed: %v", owner, err)})
		return true
	}
	for _, k := range forwardedResponseHeaders {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
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
type controlTenantRequest struct {
	Weight float64 `json:"weight"`
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
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad control request: " + err.Error()})
		return
	}
	if req.Weight < 0 {
		// JSON cannot carry NaN/Inf, so a sign check is the whole of the
		// value validation the adaptive layer would otherwise reject.
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("weight %g must be non-negative", req.Weight)})
		return
	}
	tenant := r.PathValue("tenant")
	if err := h.st.SetTenantWeight(tenant, req.Weight); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "weight": req.Weight})
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
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
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
