package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"talus/internal/cache"
	"talus/internal/serve"
	"talus/internal/sim"
	"talus/internal/store"
)

// newServer mounts a small store behind the handler under test, with
// recording allowed into a per-test temp dir.
func newServer(t *testing.T, cfg store.Config, maxBody int64) (*httptest.Server, *store.Store) {
	t.Helper()
	return newServerConfig(t, cfg, serve.Config{MaxValueBytes: maxBody, RecordDir: t.TempDir()})
}

func newServerConfig(t *testing.T, cfg store.Config, scfg serve.Config) (*httptest.Server, *store.Store) {
	t.Helper()
	srv, st, _ := newServerVia(t, transports[0], cfg, scfg)
	return srv, st
}

// do issues one request and returns the response with its body drained.
func do(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestCacheRoundTrip(t *testing.T) {
	srv, _ := newServer(t, store.Config{}, 0)
	url := srv.URL + "/v1/cache/alice/greeting"

	// Cold GET: 404 with a miss header.
	resp, body := do(t, http.MethodGet, url, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold GET = %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Talus-Cache"); h != "miss" {
		t.Fatalf("cold GET header = %q", h)
	}

	// PUT, then GET returns the stored bytes.
	resp, _ = do(t, http.MethodPut, url, []byte("hello world"))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	resp, body = do(t, http.MethodGet, url, nil)
	if resp.StatusCode != http.StatusOK || string(body) != "hello world" {
		t.Fatalf("GET = %d %q", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Talus-Cache"); h != "hit" {
		t.Fatalf("warm GET header = %q", h)
	}

	// Keys may contain slashes.
	nested := srv.URL + "/v1/cache/alice/a/b/c"
	do(t, http.MethodPut, nested, []byte("nested"))
	if _, body = do(t, http.MethodGet, nested, nil); string(body) != "nested" {
		t.Fatalf("nested key GET = %q", body)
	}

	// DELETE removes the value; a second DELETE 404s.
	if resp, _ = do(t, http.MethodDelete, url, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	if resp, _ = do(t, http.MethodDelete, url, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE = %d", resp.StatusCode)
	}
	if resp, _ = do(t, http.MethodGet, url, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE = %d", resp.StatusCode)
	}
}

func TestRouteErrors(t *testing.T) {
	srv, _ := newServer(t, store.Config{}, 64)

	// Unknown paths 404.
	for _, path := range []string{"/", "/v1", "/v1/cache", "/v2/cache/a/k", "/v1/nope"} {
		if resp, _ := do(t, http.MethodGet, srv.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	// Wrong methods 405 with Allow set.
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/v1/cache/a/k"},
		{http.MethodPut, "/v1/stats"},
		{http.MethodDelete, "/v1/curves"},
		{http.MethodGet, "/v1/record"},
	} {
		resp, _ := do(t, c.method, srv.URL+c.path, nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s = %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if resp.Header.Get("Allow") == "" {
			t.Fatalf("%s %s: no Allow header", c.method, c.path)
		}
	}
	// Empty key (trailing slash) is a 400 from the store boundary.
	if resp, body := do(t, http.MethodGet, srv.URL+"/v1/cache/alice/", nil); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "empty key") {
		t.Fatalf("empty key = %d %s", resp.StatusCode, body)
	}
	// Oversized PUT body: 413.
	resp, body := do(t, http.MethodPut, srv.URL+"/v1/cache/alice/k", bytes.Repeat([]byte("x"), 65))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT = %d %s", resp.StatusCode, body)
	}
	// In-limit PUT still fine.
	if resp, _ = do(t, http.MethodPut, srv.URL+"/v1/cache/alice/k", bytes.Repeat([]byte("x"), 64)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("max-size PUT = %d", resp.StatusCode)
	}
	// Tenant capacity: two partitions, third tenant refused with a 4xx
	// (the roster being full is the client's problem, not a server fault).
	do(t, http.MethodPut, srv.URL+"/v1/cache/bob/k", []byte("v"))
	if resp, _ = do(t, http.MethodPut, srv.URL+"/v1/cache/carol/k", []byte("v")); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third tenant = %d, want 429", resp.StatusCode)
	}
	// A GET never mints a tenant: an unknown tenant on a pure lookup is
	// a 404, and the roster stays unchanged for registered ones.
	if resp, _ = do(t, http.MethodGet, srv.URL+"/v1/cache/mallory/k", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown tenant = %d, want 404", resp.StatusCode)
	}
	if resp, _ = do(t, http.MethodGet, srv.URL+"/v1/cache/bob/k", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET registered tenant after stranger = %d, want 200", resp.StatusCode)
	}
}

func TestStaticTenant404(t *testing.T) {
	srv, _ := newServer(t, store.Config{Tenants: []string{"only"}, Static: true}, 0)
	if resp, _ := do(t, http.MethodPut, srv.URL+"/v1/cache/other/k", []byte("v")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("static-mode stranger = %d, want 404", resp.StatusCode)
	}
}

func TestStatsAndCurves(t *testing.T) {
	srv, st := newServer(t, store.Config{Tenants: []string{"a"}}, 0)
	for i := 0; i < 2048; i++ {
		key := fmt.Sprintf("k%d", i%256)
		if resp, _ := do(t, http.MethodGet, srv.URL+"/v1/cache/a/"+key, nil); resp.StatusCode == http.StatusNotFound {
			do(t, http.MethodPut, srv.URL+"/v1/cache/a/"+key, []byte("v"))
		}
	}
	if err := st.Cache().ForceEpoch(); err != nil {
		t.Fatal(err)
	}

	resp, body := do(t, http.MethodGet, srv.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var stats struct {
		Tenants []store.TenantStats `json:"tenants"`
		Epochs  int                 `json:"epochs"`
		Cache   *struct {
			Accesses int64 `json:"accesses"`
			Hits     int64 `json:"hits"`
			Misses   int64 `json:"misses"`
		} `json:"cache"`
		CapacityLines int64 `json:"capacityLines"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats JSON: %v in %s", err, body)
	}
	if len(stats.Tenants) != 1 || stats.Tenants[0].Gets != 2048 || stats.Tenants[0].Sets != 256 {
		t.Fatalf("stats payload = %+v", stats)
	}
	if stats.Epochs == 0 || stats.Cache == nil || stats.Cache.Accesses != 2048+256 || stats.CapacityLines == 0 {
		t.Fatalf("stats payload = %+v", stats)
	}
	// The block sums the tenants' outcomes; the cache layer counts the same.
	if cs := st.Cache().Shadowed().Inner().(*cache.ShardedCache).Stats(); cs.Accesses != stats.Cache.Accesses ||
		cs.Hits != stats.Cache.Hits || cs.Misses != stats.Cache.Misses {
		t.Fatalf("cache block %+v, cache layer %+v", *stats.Cache, cs)
	}

	resp, body = do(t, http.MethodGet, srv.URL+"/v1/curves", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("curves = %d", resp.StatusCode)
	}
	var curves struct {
		Tenants []struct {
			Tenant   string `json:"tenant"`
			Measured []struct {
				Size float64 `json:"size"`
				MPKI float64 `json:"mpki"`
			} `json:"measured"`
			Hull []struct {
				Size float64 `json:"size"`
				MPKI float64 `json:"mpki"`
			} `json:"hull"`
			AllocLines int64 `json:"allocLines"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &curves); err != nil {
		t.Fatalf("curves JSON: %v in %s", err, body)
	}
	if len(curves.Tenants) != 1 || curves.Tenants[0].Tenant != "a" {
		t.Fatalf("curves payload = %s", body)
	}
	if len(curves.Tenants[0].Measured) == 0 || len(curves.Tenants[0].Hull) == 0 {
		t.Fatalf("no curves after an epoch: %s", body)
	}
	if curves.Tenants[0].AllocLines <= 0 {
		t.Fatalf("no allocation: %s", body)
	}
}

func TestRecordEndpoint(t *testing.T) {
	recordDir := t.TempDir()
	srv, _ := newServerConfig(t, store.Config{Tenants: []string{"a"}},
		serve.Config{RecordDir: recordDir})
	path := filepath.Join(recordDir, "rec.trc")

	// Bad requests first: malformed JSON, unknown action, missing path,
	// path-escape attempts, stop without start.
	if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/record", []byte("{")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON = %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/record", []byte(`{"action":"pause"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown action = %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/record", []byte(`{"action":"start"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("start without path = %d", resp.StatusCode)
	}
	for _, escape := range []string{"../evil.trc", "/etc/passwd", "sub/dir.trc", "..", ".hidden"} {
		req := fmt.Sprintf(`{"action":"start","path":%q}`, escape)
		if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/record", []byte(req)); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("path escape %q = %d, want 400", escape, resp.StatusCode)
		}
	}
	if resp, _ := do(t, http.MethodPost, srv.URL+"/v1/record", []byte(`{"action":"stop"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stop before start = %d", resp.StatusCode)
	}

	// Start, traffic, stop: the reported count matches the traffic, and
	// the capture replays cleanly. Clients name a bare file; the server
	// anchors it inside the record dir.
	start := `{"action":"start","path":"rec.trc","gzip":true}`
	if resp, body := do(t, http.MethodPost, srv.URL+"/v1/record", []byte(start)); resp.StatusCode != http.StatusOK {
		t.Fatalf("start = %d %s", resp.StatusCode, body)
	}
	const n = 4096
	for i := 0; i < n; i++ {
		do(t, http.MethodPut, srv.URL+fmt.Sprintf("/v1/cache/a/k%d", i%512), []byte("v"))
	}
	resp, body := do(t, http.MethodPost, srv.URL+"/v1/record", []byte(`{"action":"stop"}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stop = %d %s", resp.StatusCode, body)
	}
	var stopped struct {
		Records int64 `json:"records"`
	}
	if err := json.Unmarshal(body, &stopped); err != nil || stopped.Records != n {
		t.Fatalf("stop payload %s (err %v), want %d records", body, err, n)
	}
	res, err := sim.RunAdaptiveTraceFile(sim.AdaptiveConfig{CapacityLines: 8192}, path)
	if err != nil {
		t.Fatalf("served trace replay: %v", err)
	}
	if res.Apps[0] != "a" {
		t.Fatalf("replay apps = %v", res.Apps)
	}
}

// TestHTTPContract pins the surface the package documentation promises
// (doc.go): the X-Talus-Cache header on cache routes, the JSON error
// body shape, and the exact /v1/record 403 body. If this test needs
// changing, doc.go needs changing in the same commit. The checks run on
// each transport, and both must see the same replies, header for header
// and byte for byte.
func TestHTTPContract(t *testing.T) {
	var replies [][]reply
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv, st, hijacks := newServerVia(t, tr, store.Config{Tenants: []string{"a"}},
				serve.Config{MaxValueBytes: 32})
			var seen []reply
			// do records each reply; the do it calls is the package's.
			do := func(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
				t.Helper()
				resp, b := do(t, method, url, body)
				seen = append(seen, newReply(resp, b, st))
				return resp, b
			}
			url := srv.URL + "/v1/cache/a/contract"

			// Successful PUT: 204 with X-Talus-Cache set (cold line: miss).
			resp, _ := do(t, http.MethodPut, url, []byte("v"))
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("PUT = %d", resp.StatusCode)
			}
			if h := resp.Header.Get("X-Talus-Cache"); h != "hit" && h != "miss" {
				t.Fatalf("PUT X-Talus-Cache = %q, want hit|miss", h)
			}

			// GET of a never-stored key: 404, but the header is still present
			// (the access happened and shaped the miss curve) and the body is
			// the documented JSON error shape naming the typed error. A 404 is
			// never a hit — not even the second time, when the first lookup has
			// left the key's line resident.
			var body []byte
			for i := 0; i < 2; i++ {
				resp, body = do(t, http.MethodGet, srv.URL+"/v1/cache/a/absent", nil)
				if resp.StatusCode != http.StatusNotFound {
					t.Fatalf("GET absent = %d", resp.StatusCode)
				}
				if h := resp.Header.Get("X-Talus-Cache"); h != "miss" {
					t.Fatalf("404 GET %d: X-Talus-Cache = %q, want miss", i, h)
				}
			}
			var e404 struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e404); err != nil || !strings.Contains(e404.Error, "key not found") {
				t.Fatalf("404 body = %s (err %v), want {\"error\": ...key not found...}", body, err)
			}

			// Oversized PUT: 413, documented error shape, and no cache header —
			// the request was rejected before any access happened.
			resp, body = do(t, http.MethodPut, url, bytes.Repeat([]byte("x"), 33))
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized PUT = %d", resp.StatusCode)
			}
			if h := resp.Header.Get("X-Talus-Cache"); h != "" {
				t.Fatalf("413 PUT X-Talus-Cache = %q, want unset", h)
			}
			var e413 struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e413); err != nil || !strings.Contains(e413.Error, "value too large") {
				t.Fatalf("413 body = %s (err %v)", body, err)
			}

			// Record endpoint without a record dir: 403 with the exact body the
			// package doc quotes.
			resp, body = do(t, http.MethodPost, srv.URL+"/v1/record", []byte(`{"action":"start","path":"x.trc"}`))
			if resp.StatusCode != http.StatusForbidden {
				t.Fatalf("record without dir = %d", resp.StatusCode)
			}
			const want403 = `{"error":"recording disabled: the server was started without a record directory"}`
			if got := strings.TrimSpace(string(body)); got != want403 {
				t.Fatalf("403 body = %s, want exactly %s", got, want403)
			}
			tr.checkHijacks(t, hijacks)
			replies = append(replies, seen)
		})
	}
	sameReplies(t, replies)
}

// TestRecordDisabledByDefault: without an explicit record dir the
// endpoint must refuse outright — it writes server-side files, so
// enabling it is an operator decision, not a client one.
func TestRecordDisabledByDefault(t *testing.T) {
	srv, _ := newServerConfig(t, store.Config{}, serve.Config{})
	resp, body := do(t, http.MethodPost, srv.URL+"/v1/record", []byte(`{"action":"start","path":"x.trc"}`))
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("record without record dir = %d %s, want 403", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "recording disabled") {
		t.Fatalf("403 body %s does not explain itself", body)
	}
}

// TestRecordBodyIsStrict: a misspelled option used to be dropped, so
// {"gzp":true} started an uncompressed recording and answered 200. An
// unknown key is now a 400 and nothing starts.
func TestRecordBodyIsStrict(t *testing.T) {
	srv, st := newServerConfig(t, store.Config{Tenants: []string{"a"}},
		serve.Config{RecordDir: t.TempDir()})
	resp, body := do(t, http.MethodPost, srv.URL+"/v1/record", []byte(`{"action":"start","path":"t.trc","gzp":true}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("record start with a misspelled key = %d %s, want 400", resp.StatusCode, body)
	}
	if st.Recording() {
		t.Fatal("a refused start is recording")
	}
}
