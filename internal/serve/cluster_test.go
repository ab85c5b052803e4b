package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"talus/internal/adaptive"
	"talus/internal/cluster"
	"talus/internal/serve"
	"talus/internal/store"
)

func httpBody(s string) io.Reader { return bytes.NewReader([]byte(s)) }

// fakeClock is a settable time source for TTL-over-HTTP tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestETagRevalidation pins the satellite contract: GETs carry a
// value-hash ETag, PUTs return the same tag, and If-None-Match with the
// current tag yields 304 with no body.
func TestETagRevalidation(t *testing.T) {
	srv, _ := newServer(t, store.Config{}, 0)
	url := srv.URL + "/v1/cache/alice/doc"

	resp, _ := do(t, http.MethodPut, url, []byte("version one"))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	putTag := resp.Header.Get("ETag")
	if len(putTag) != 18 || putTag[0] != '"' || putTag[17] != '"' {
		t.Fatalf("PUT ETag = %q, want quoted 16-hex tag", putTag)
	}

	resp, body := do(t, http.MethodGet, url, nil)
	if got := resp.Header.Get("ETag"); got != putTag {
		t.Fatalf("GET ETag %q != PUT ETag %q", got, putTag)
	}
	if string(body) != "version one" {
		t.Fatalf("GET body = %q", body)
	}

	// Revalidation with the current tag: 304, empty body, tag echoed.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", putTag)
	resp304, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp304.Body.Close()
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match current = %d, want 304", resp304.StatusCode)
	}
	if got := resp304.Header.Get("ETag"); got != putTag {
		t.Fatalf("304 ETag = %q, want %q", got, putTag)
	}

	// A stale tag (the value changed) gets the full body again.
	do(t, http.MethodPut, url, []byte("version two"))
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", putTag)
	respStale, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer respStale.Body.Close()
	if respStale.StatusCode != http.StatusOK {
		t.Fatalf("If-None-Match stale = %d, want 200", respStale.StatusCode)
	}
	if got := respStale.Header.Get("ETag"); got == putTag {
		t.Fatal("ETag did not change with the value")
	}

	// "*" matches whatever is stored.
	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", `"deadbeefdeadbeef", *`)
	respAny, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respAny.Body.Close()
	if respAny.StatusCode != http.StatusNotModified {
		t.Fatalf(`If-None-Match "*" = %d, want 304`, respAny.StatusCode)
	}
}

// TestTTLHeader pins the per-entry TTL satellite over HTTP: X-Talus-TTL
// seconds on PUT, lazy expiry on GET, and a 400 for malformed headers.
func TestTTLHeader(t *testing.T) {
	srv, st := newServer(t, store.Config{}, 0)
	clock := newFakeClock()
	st.SetNow(clock.Now)
	url := srv.URL + "/v1/cache/alice/ephemeral"

	req, _ := http.NewRequest(http.MethodPut, url, httpBody("short-lived"))
	req.Header.Set("X-Talus-TTL", "5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT with TTL = %d", resp.StatusCode)
	}

	if resp, _ := do(t, http.MethodGet, url, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET before expiry = %d", resp.StatusCode)
	}
	clock.Advance(6 * time.Second)
	if resp, _ := do(t, http.MethodGet, url, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after expiry = %d, want 404", resp.StatusCode)
	}

	for _, bad := range []string{"-1", "soon", "1.5"} {
		req, _ := http.NewRequest(http.MethodPut, url, httpBody("x"))
		req.Header.Set("X-Talus-TTL", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT with X-Talus-TTL=%q = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestStatsNodeBlock pins the /v1/stats node block and the single-node
// /v1/cluster shape.
func TestStatsNodeBlock(t *testing.T) {
	srv, st := newServer(t, store.Config{NodeID: "stats-node"}, 0)

	resp, body := do(t, http.MethodGet, srv.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var stats struct {
		Node store.NodeStats `json:"node"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Node.ID != "stats-node" || stats.Node.PID <= 0 || stats.Node.GoMaxProcs < 1 || stats.Node.StartTime.IsZero() {
		t.Fatalf("stats node block = %+v", stats.Node)
	}
	if stats.Node.ID != st.Node().ID {
		t.Fatalf("stats node %q != store node %q", stats.Node.ID, st.Node().ID)
	}

	resp, body = do(t, http.MethodGet, srv.URL+"/v1/cluster", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster = %d", resp.StatusCode)
	}
	var cl struct {
		Clustered bool            `json:"clustered"`
		Node      store.NodeStats `json:"node"`
		Nodes     []any           `json:"nodes"`
	}
	if err := json.Unmarshal(body, &cl); err != nil {
		t.Fatal(err)
	}
	if cl.Clustered || len(cl.Nodes) != 0 || cl.Node.ID != "stats-node" {
		t.Fatalf("single-node /v1/cluster = %s", body)
	}
}

// clusterHarness is a live in-process N-node cluster: each node runs
// its own store and handler over a real TCP listener, configured with
// the full membership ring.
type clusterHarness struct {
	nodes   []string // listen addresses == ring node names
	stores  []*store.Store
	servers []*httptest.Server
	ring    *cluster.Ring
}

// newCluster starts n proxying nodes. Listeners are created unstarted
// first so the full address list exists before any ring is built —
// exactly how a static fleet config works in deployment.
func newCluster(t testing.TB, n int, lines int64) *clusterHarness {
	t.Helper()
	return newClusterWrapped(t, n, lines, nil)
}

// newClusterWrapped is newCluster with node i's handler wrapped by
// wrap(i, handler) when wrap is not nil.
func newClusterWrapped(t testing.TB, n int, lines int64, wrap func(int, http.Handler) http.Handler) *clusterHarness {
	t.Helper()
	servers := make([]*httptest.Server, n)
	nodes := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		nodes[i] = servers[i].Listener.Addr().String()
	}
	h := &clusterHarness{nodes: nodes, servers: servers}
	for i, srv := range servers {
		cl, err := cluster.New(cluster.Config{Self: nodes[i], Nodes: nodes, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if h.ring == nil {
			h.ring = cl.Ring()
		}
		ac, err := adaptive.Build("vantage", lines, 16, 1, 2, 0.05,
			adaptive.Config{EpochAccesses: 1 << 14, Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.New(ac, store.Config{NodeID: nodes[i]})
		if err != nil {
			t.Fatal(err)
		}
		h.stores = append(h.stores, st)
		var handler http.Handler = serve.NewHandler(st, serve.Config{Cluster: cl})
		if wrap != nil {
			handler = wrap(i, handler)
		}
		srv.Config.Handler = handler
		srv.Start()
		t.Cleanup(func() {
			closeServer(srv)
			st.Close()
		})
	}
	return h
}

func (h *clusterHarness) url(node int, tenant, key string) string {
	return fmt.Sprintf("http://%s/v1/cache/%s/%s", h.nodes[node], tenant, key)
}

// TestClusterRouting is the in-process three-node acceptance test:
// every key PUT through an arbitrary node is served by — and only by —
// its deterministic ring owner, reads through any node return the
// value, and /v1/cluster agrees across the fleet.
func TestClusterRouting(t *testing.T) {
	const keys = 60
	h := newCluster(t, 3, 4096)

	seen := make(map[string]int) // owner node → keys served
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("obj-%03d", i)
		owner := h.ring.Route("alice", key)

		// Write through a rotating entry node; the owner must answer.
		entry := i % len(h.nodes)
		resp, _ := do(t, http.MethodPut, h.url(entry, "alice", key), []byte("payload-"+key))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %s via node %d = %d", key, entry, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Talus-Node"); got != owner {
			t.Fatalf("PUT %s served by %q, ring owner is %q", key, got, owner)
		}

		// Read through a different node; same owner, same bytes.
		resp, body := do(t, http.MethodGet, h.url((entry+1)%len(h.nodes), "alice", key), nil)
		if resp.StatusCode != http.StatusOK || string(body) != "payload-"+key {
			t.Fatalf("GET %s = %d %q", key, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Talus-Node"); got != owner {
			t.Fatalf("GET %s served by %q, ring owner is %q", key, got, owner)
		}
		if resp.Header.Get("X-Talus-Cache") != "hit" {
			t.Fatalf("GET %s missed on its owner right after the PUT", key)
		}
		seen[owner]++
	}
	if len(seen) != len(h.nodes) {
		t.Fatalf("only %d of %d nodes own keys: %v", len(seen), len(h.nodes), seen)
	}

	// Ownership is local: each store holds exactly its ring keys.
	total := 0
	for i, st := range h.stores {
		s, err := st.Stats("alice")
		if err != nil {
			t.Fatalf("node %d never saw tenant alice: %v", i, err)
		}
		if int(s.Keys) != seen[h.nodes[i]] {
			t.Fatalf("node %d holds %d keys, ring assigns it %d", i, s.Keys, seen[h.nodes[i]])
		}
		total += int(s.Keys)
	}
	if total != keys {
		t.Fatalf("cluster holds %d keys, wrote %d", total, keys)
	}

	// DELETE routes identically; the key vanishes fleet-wide.
	resp, _ := do(t, http.MethodDelete, h.url(0, "alice", "obj-000"), nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, h.url(2, "alice", "obj-000"), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE = %d, want 404", resp.StatusCode)
	}

	// /v1/cluster: clustered view with all members and shares near 1/N.
	resp, body := do(t, http.MethodGet, fmt.Sprintf("http://%s/v1/cluster", h.nodes[0]), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cluster = %d", resp.StatusCode)
	}
	var cl struct {
		Clustered bool   `json:"clustered"`
		Self      string `json:"self"`
		VNodes    int    `json:"vnodes"`
		Nodes     []struct {
			Node  string  `json:"node"`
			Share float64 `json:"share"`
			Self  bool    `json:"self"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &cl); err != nil {
		t.Fatal(err)
	}
	if !cl.Clustered || cl.Self != h.nodes[0] || cl.VNodes != cluster.DefaultVNodes || len(cl.Nodes) != 3 {
		t.Fatalf("/v1/cluster = %s", body)
	}
	sum := 0.0
	for _, n := range cl.Nodes {
		sum += n.Share
		if n.Self != (n.Node == h.nodes[0]) {
			t.Fatalf("self flag wrong in %s", body)
		}
	}
	if sum < 0.9999 || sum > 1.0001 {
		t.Fatalf("shares sum to %v", sum)
	}
}

// TestClusterForwardedHeaderStopsLoops pins the one-hop guarantee: a
// request already marked forwarded is served locally even by a
// non-owner, so membership disagreement can never cycle a request.
func TestClusterForwardedHeaderStopsLoops(t *testing.T) {
	h := newCluster(t, 2, 4096)

	// Find a key owned by node 1, then ask node 0 for it with the
	// forwarded mark already set: node 0 must answer itself (a miss —
	// it does not hold the key).
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if h.ring.Route("alice", k) == h.nodes[1] {
			key = k
			break
		}
	}
	req, _ := http.NewRequest(http.MethodPut, h.url(0, "alice", key), httpBody("v"))
	req.Header.Set(cluster.ForwardedHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("forwarded PUT = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Talus-Node"); got != h.nodes[0] {
		t.Fatalf("forwarded PUT answered by %q, want the receiving node %q", got, h.nodes[0])
	}
	// The non-owner holds it; the owner never saw it.
	if s, err := h.stores[0].Stats("alice"); err != nil || s.Keys != 1 {
		t.Fatalf("receiving node stats: %+v, %v", s, err)
	}
}

// TestClusterForwardError pins two proxy edges: a forwarded miss
// relays the owner's 404 (status and node attribution intact), and a
// dead owner turns into a 502 gateway error instead of a hang.
func TestClusterForwardError(t *testing.T) {
	h := newCluster(t, 2, 4096)

	// A key owned by node 1, reached through node 0.
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if h.ring.Route("alice", k) == h.nodes[1] {
			key = k
			break
		}
	}
	resp, body := do(t, http.MethodGet, h.url(0, "alice", key), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("forwarded GET of absent key = %d %s, want owner's 404", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Talus-Node"); got != h.nodes[1] {
		t.Fatalf("absent-key GET answered by %q, want owner %q", got, h.nodes[1])
	}

	// Kill the owner: the proxy must answer 502, not hang.
	closeServer(h.servers[1])
	resp, body = do(t, http.MethodGet, h.url(0, "alice", key), nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("GET with dead owner = %d %s, want 502", resp.StatusCode, body)
	}
}
