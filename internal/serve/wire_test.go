package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"talus/internal/adaptive"
	"talus/internal/cluster"
	"talus/internal/serve"
	"talus/internal/store"
)

// transport is one way requests reach the handler: as its server's own
// Handler, which serves the connections of cache clients itself, or
// behind a pass-through wrapper, which leaves every request to
// net/http's server.
type transport struct {
	name string
	wrap func(http.Handler) http.Handler // nil: the server's own Handler
}

var transports = []transport{
	{name: "owned"},
	{name: "wrapped", wrap: func(h http.Handler) http.Handler { return http.HandlerFunc(h.ServeHTTP) }},
}

func (tr transport) handler(h http.Handler) http.Handler {
	if tr.wrap == nil {
		return h
	}
	return tr.wrap(h)
}

// checkHijacks fails t unless the handler took connections over exactly
// when it is the server's own: hijacks counts StateHijacked transitions.
func (tr transport) checkHijacks(t testing.TB, hijacks *atomic.Int64) {
	t.Helper()
	if n := hijacks.Load(); (n > 0) != (tr.wrap == nil) {
		t.Errorf("%s: %d connections hijacked", tr.name, n)
	}
}

// newStore builds the small store the handler tests serve.
func newStore(t testing.TB, cfg store.Config) *store.Store {
	t.Helper()
	ac, err := adaptive.Build("vantage", 8192, 16, 2, 2, 0.05,
		adaptive.Config{EpochAccesses: 1 << 14, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(ac, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newServerVia mounts a small store behind the handler under test,
// reached through tr, and counts the connections the server hijacks.
func newServerVia(t testing.TB, tr transport, cfg store.Config, scfg serve.Config) (*httptest.Server, *store.Store, *atomic.Int64) {
	t.Helper()
	st := newStore(t, cfg)
	srv := httptest.NewUnstartedServer(tr.handler(serve.NewHandler(st, scfg)))
	hijacks := new(atomic.Int64)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateHijacked {
			hijacks.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(func() {
		closeServer(srv)
		st.Close()
	})
	return srv, st, hijacks
}

// closeServer closes an httptest server and its http.Server: the test
// server's Close leaves connections the handler hijacked to the
// http.Server's.
func closeServer(srv *httptest.Server) {
	srv.Close()
	srv.Config.Close()
}

// reply is what a client sees of one response: status, headers with the
// Date value masked, and the body.
type reply struct {
	status int
	header http.Header
	body   string
}

// newReply records resp, read from a server over st. The node's start
// time in a /v1/stats or /v1/cluster 200 is st's own wall clock, so it
// is masked in the body, and the bytes it adds are taken out of the
// Content-Length, a HEAD's included. The owned-connection counts in a
// /v1/stats 200 are the transport's own, so they are masked, and with
// them the Content-Length, which counts their digits.
func newReply(resp *http.Response, body []byte, st *store.Store) reply {
	h := resp.Header.Clone()
	if _, ok := h["Date"]; ok {
		h["Date"] = []string{"(date)"}
	}
	if p := resp.Request.URL.Path; resp.StatusCode == http.StatusOK && (p == "/v1/stats" || p == "/v1/cluster") {
		stamp, _ := json.Marshal(st.Node().StartTime)
		if n, err := strconv.Atoi(h.Get("Content-Length")); err == nil {
			h["Content-Length"] = []string{strconv.Itoa(n-len(stamp)) + " + start time"}
		}
		body = bytes.Replace(body, stamp, []byte("(start)"), 1)
		if p == "/v1/stats" {
			body = ownedBlock.ReplaceAll(body, []byte(`"owned":(counts)`))
			h["Content-Length"] = []string{"(owned counts)"}
		}
	}
	return reply{resp.StatusCode, h, string(body)}
}

// ownedBlock matches the owned-connection counts of a /v1/stats body.
var ownedBlock = regexp.MustCompile(`"owned":\{[^}]*\}`)

// sameReplies fails t where the transports saw different replies to the
// same requests.
func sameReplies(t *testing.T, replies [][]reply) {
	t.Helper()
	a, b := replies[0], replies[1]
	if len(a) != len(b) {
		t.Fatalf("%s saw %d replies, %s %d", transports[0].name, len(a), transports[1].name, len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("reply %d differs:\n%s: %d %v %q\n%s: %d %v %q", i,
				transports[0].name, a[i].status, a[i].header, a[i].body,
				transports[1].name, b[i].status, b[i].header, b[i].body)
		}
	}
}

// readRaw reads one response off br as the bytes sent, with the Date
// value masked. It frames by Content-Length, reading no body for HEAD,
// 204 and 304, and to the end of the stream after Connection: close.
func readRaw(br *bufio.Reader, method string) (string, error) {
	var raw bytes.Buffer
	length, closing := 0, false
	status, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	raw.WriteString(status)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", err
		}
		name, value, _ := strings.Cut(strings.TrimSuffix(line, "\r\n"), ": ")
		switch name {
		case "Date":
			line = "Date: (date)\r\n"
		case "Content-Length":
			length, _ = strconv.Atoi(value)
		case "Connection":
			closing = value == "close"
		}
		raw.WriteString(line)
		if line == "\r\n" {
			break
		}
	}
	switch {
	case method == http.MethodHead || strings.Contains(status, " 204 ") || strings.Contains(status, " 304 "):
	case closing:
		_, err = io.Copy(&raw, br)
	default:
		_, err = io.CopyN(&raw, br, int64(length))
	}
	return raw.String(), err
}

// TestWireMatchesNetHTTP: every reply an owned connection writes is the
// bytes net/http's server writes for the same handler calls, Date value
// aside — status line, header order, Date, Content-Length on every reply
// whose status allows a body (a HEAD of an empty value and bodies past
// net/http's 2 KiB buffer included, so neither transport chunks), no
// body on 204 and 304, a sniffed Content-Type on a relayed body without
// one, Connection: close after a refused body, and none after a body
// the client cut short. A CR or LF in a header value, from an owner's
// reply or in the node's own ID, is a space on both, never a header line
// of its own.
func TestWireMatchesNetHTTP(t *testing.T) {
	const injected = "X-Injected: 1"
	peer := startFakeOwner(t, func(_ int64, line string, c net.Conn) bool {
		if strings.Contains(line, " /v1/cache/cr/") {
			io.WriteString(c, "HTTP/1.1 200 OK\r\nX-Talus-Node: owner\r"+injected+"\r\n"+
				"Etag: \"e\r"+injected+"\"\r\nContent-Length: 5\r\n\r\nhello")
			return false
		}
		io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
		return false
	})
	type node struct {
		addr, crlfAddr string // crlfAddr: a node whose NodeID holds "\r\n"
		ring           *cluster.Ring
		st             *store.Store
		hijacks        *atomic.Int64
	}
	var nodes []node
	for _, tr := range transports {
		hijacks := new(atomic.Int64)
		start := func(nodeID string, cl func(addr string) *cluster.Cluster) (string, *store.Store) {
			srv := httptest.NewUnstartedServer(nil)
			addr := srv.Listener.Addr().String()
			st := newStore(t, store.Config{Tenants: []string{"a"}, NodeID: nodeID})
			srv.Config.Handler = tr.handler(serve.NewHandler(st, serve.Config{Cluster: cl(addr), MaxValueBytes: 16}))
			srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateHijacked {
					hijacks.Add(1)
				}
			}
			srv.Start()
			t.Cleanup(func() {
				closeServer(srv)
				st.Close()
			})
			return addr, st
		}
		var ring *cluster.Ring
		addr, st := start("node", func(addr string) *cluster.Cluster {
			cl, err := cluster.New(cluster.Config{Self: addr, Nodes: []string{addr, peer.addr}, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			ring = cl.Ring()
			return cl
		})
		crlfAddr, _ := start("node\r\n"+injected, func(string) *cluster.Cluster { return nil })
		nodes = append(nodes, node{addr, crlfAddr, ring, st, hijacks})
	}
	// keyOn returns a key of tenant, prefix and a number, that every
	// node's ring assigns to the node itself, or to the peer.
	keyOn := func(tenant, prefix string, self bool) string {
		for k := 0; ; k++ {
			key := prefix + strconv.Itoa(k)
			ok := true
			for _, n := range nodes {
				owner := peer.addr
				if self {
					owner = n.addr
				}
				ok = ok && n.ring.Route(tenant, key) == owner
			}
			if ok {
				return key
			}
		}
	}
	local, remote := keyOn("a", "k", true), keyOn("a", "k", false)
	path := "/v1/cache/a/" + local
	// Values past the node's 16-B PUT cap, stored directly: one just past
	// net/http's 2 KiB response buffer, one past a read buffer, one past
	// 64 KiB; and an empty one, for a HEAD.
	sized := map[int]string{}
	for _, size := range []int{2049, 4 << 10, 64 << 10, 0} {
		key := keyOn("a", "size"+strconv.Itoa(size)+"-", true)
		for _, n := range nodes {
			if _, err := n.st.Set("a", key, bytes.Repeat([]byte{'s'}, size)); err != nil {
				t.Fatal(err)
			}
		}
		sized[size] = "/v1/cache/a/" + key
	}
	get := func(target, extra string) string {
		return "GET " + target + " HTTP/1.1\r\nHost: x\r\n" + extra + "\r\n"
	}
	remoteCR := "/v1/cache/cr/" + keyOn("cr", "k", false) // the fake owner answers tenant cr with a bare CR in two values
	steps := []struct{ method, req string }{
		// A connection of its own to the node whose NodeID holds "\r\n".
		{"GET", get(path, "")},
		{"GET", get(path, "")},
		{"PUT", "PUT " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"},
		{"GET", get(path, "")},
		{"GET", get(path+"?x=1", "")},
		{"HEAD", "HEAD " + path + " HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"GET", get(path, "If-None-Match: *\r\n")},
		{"GET", get("/v1/cache/a/"+remote, "")},
		{"HEAD", "HEAD /v1/cache/a/" + remote + " HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"GET", get(remoteCR, "")},
		{"PUT", "PUT " + path + " HTTP/1.1\r\nHost: x\r\nX-Talus-TTL: soon\r\nContent-Length: 1\r\n\r\nx"},
		{"DELETE", "DELETE " + path + " HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"DELETE", "DELETE " + path + " HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"HEAD", "HEAD " + path + " HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"GET", get("/v1/stats/", "")},
		{"GET", get("/v1/cache/a%2Fb/"+keyOn("a/b", "k", true), "")},
		{"GET", get(sized[2049], "")},
		{"GET", get(sized[4<<10], "")},
		{"GET", get(sized[64<<10], "")},
		{"HEAD", "HEAD " + sized[0] + " HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"PUT", "PUT " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: 17\r\n\r\n" + strings.Repeat("v", 17)},
		// A second connection, whose client sends half a body and hangs up.
		{"GET", get(path, "")},
		{"PUT", "PUT " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nshort"},
	}
	const crlfNode, firstConn, secondConn = 0, 1, 21 // the first step on each connection
	var seen [2][]string
	for i, n := range nodes {
		var c net.Conn
		var br *bufio.Reader
		for j, x := range steps {
			if j == crlfNode || j == firstConn || j == secondConn {
				if j == secondConn {
					if _, err := br.ReadByte(); err != io.EOF {
						t.Errorf("%s: connection open after a 413: %v", transports[i].name, err)
					}
				}
				if c != nil {
					c.Close()
				}
				addr := n.addr
				if j == crlfNode {
					addr = n.crlfAddr
				}
				var err error
				if c, err = net.Dial("tcp", addr); err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(10 * time.Second))
				br = bufio.NewReader(c)
			}
			if _, err := io.WriteString(c, x.req); err != nil {
				t.Fatal(err)
			}
			if j == len(steps)-1 {
				c.(*net.TCPConn).CloseWrite()
			}
			raw, err := readRaw(br, x.method)
			if err != nil {
				t.Fatalf("%s: %q: %v", transports[i].name, x.req, err)
			}
			seen[i] = append(seen[i], raw)
		}
		transports[i].checkHijacks(t, n.hijacks)
	}
	for i, x := range steps {
		if seen[0][i] != seen[1][i] {
			t.Errorf("%q:\n%s:\n%.600s\n%s:\n%.600s", x.req, transports[0].name, seen[0][i], transports[1].name, seen[1][i])
		}
		head, _, _ := strings.Cut(seen[0][i], "\r\n\r\n")
		noBody := strings.HasPrefix(head, "HTTP/1.1 204 ") || strings.HasPrefix(head, "HTTP/1.1 304 ")
		if !noBody && !strings.Contains(head, "\r\nContent-Length: ") {
			t.Errorf("%q: reply without Content-Length:\n%s", x.req, head)
		}
	}
	// The steps reach the cases the writer frames itself.
	all := strings.Join(seen[0], "")
	for _, want := range []string{"\r\nContent-Type: text/plain; charset=utf-8\r\n",
		"HTTP/1.1 413 Request Entity Too Large\r\n", "\r\nConnection: close\r\n",
		"\r\nX-Talus-Node: node  " + injected + "\r\n",
		"\r\nEtag: \"e " + injected + "\"\r\nX-Talus-Node: owner " + injected + "\r\n"} {
		if !strings.Contains(all, want) {
			t.Errorf("no reply has %q", want)
		}
	}
	if strings.Contains(all, "\r"+injected) || strings.Contains(all, "\n"+injected) {
		t.Errorf("a header value became a header line: %q", all)
	}
}

// TestBodyFaultIsClientError: a PUT body that ends before its
// Content-Length is the client's fault, a 400, and one still short of it
// when the server's ReadTimeout runs out is a 408, in the same bytes on
// both transports. Each PUT follows a GET, so that an owned connection
// serves it itself.
func TestBodyFaultIsClientError(t *testing.T) {
	faults := []struct {
		name   string
		hangUp bool
		status string
	}{
		{"cut", true, "HTTP/1.1 400 Bad Request\r\n"},
		{"stalled", false, "HTTP/1.1 408 Request Timeout\r\n"},
	}
	var seen [2][]string
	for i, tr := range transports {
		st := newStore(t, store.Config{Tenants: []string{"a"}, NodeID: "node"})
		srv := httptest.NewUnstartedServer(tr.handler(serve.NewHandler(st, serve.Config{})))
		srv.Config.ReadTimeout = 200 * time.Millisecond
		hijacks := new(atomic.Int64)
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateHijacked {
				hijacks.Add(1)
			}
		}
		srv.Start()
		t.Cleanup(func() {
			closeServer(srv)
			st.Close()
		})
		for _, f := range faults {
			c, err := net.Dial("tcp", srv.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			c.SetDeadline(time.Now().Add(10 * time.Second))
			br := bufio.NewReader(c)
			io.WriteString(c, "GET /v1/cache/a/k HTTP/1.1\r\nHost: x\r\n\r\n")
			if _, err := readRaw(br, http.MethodGet); err != nil {
				t.Fatalf("%s: GET: %v", tr.name, err)
			}
			io.WriteString(c, "PUT /v1/cache/a/k HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nshort")
			if f.hangUp {
				c.(*net.TCPConn).CloseWrite()
			}
			raw, err := readRaw(br, http.MethodPut)
			c.Close()
			if err != nil {
				t.Fatalf("%s: %s body: %v", tr.name, f.name, err)
			}
			if !strings.HasPrefix(raw, f.status) {
				t.Errorf("%s: %s body read %q, want %q", tr.name, f.name, raw, f.status)
			}
			seen[i] = append(seen[i], raw)
		}
		tr.checkHijacks(t, hijacks)
	}
	for j, f := range faults {
		if seen[0][j] != seen[1][j] {
			t.Errorf("%s body:\n%s:\n%s\n%s:\n%s", f.name, transports[0].name, seen[0][j], transports[1].name, seen[1][j])
		}
	}
}

// ownedStats is the "owned" block of a /v1/stats reply.
type ownedStats struct{ Connections, Requests, HandBacks int64 }

// TestOwnedCountsInStats: /v1/stats counts the connections the handler
// took over, the requests it answered on them, and the requests it
// handed back to net/http, here on one keep-alive connection that
// changes hands twice; through a wrapper all three stay 0.
func TestOwnedCountsInStats(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv, st, _ := newServerVia(t, tr, store.Config{Tenants: []string{"a"}}, serve.Config{})
			if _, err := st.Set("a", "k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			c, err := net.Dial("tcp", srv.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			br := bufio.NewReader(c)
			var seen []ownedStats
			for _, path := range []string{"/v1/cache/a/k", "/v1/cache/a/k", "/v1/stats", "/v1/cache/a/k", "/v1/stats"} {
				if _, err := io.WriteString(c, "GET "+path+" HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
					t.Fatal(err)
				}
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
				}
				if path == "/v1/stats" {
					var stats struct{ Owned ownedStats }
					if err := json.Unmarshal(body, &stats); err != nil {
						t.Fatal(err)
					}
					seen = append(seen, stats.Owned)
				}
			}
			want := []ownedStats{{1, 2, 1}, {2, 3, 2}}
			if tr.wrap != nil {
				want = []ownedStats{{}, {}}
			}
			if !reflect.DeepEqual(seen, want) {
				t.Fatalf("owned counts %+v, want %+v", seen, want)
			}
		})
	}
}

// TestOwnedCountsAddUp: /v1/stats, read while owned connections serve
// requests and as they end, counts every request once and never goes
// back: each connection's own count while it is open, folded into the
// total when it ends. Run it under -race.
func TestOwnedCountsAddUp(t *testing.T) {
	const clients, gets = 4, 200
	srv, st, _ := newServerVia(t, transports[0], store.Config{Tenants: []string{"a"}}, serve.Config{})
	if _, err := st.Set("a", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	addr := srv.Listener.Addr().String()
	stats := func() ownedStats {
		t.Helper()
		resp, body := do(t, http.MethodGet, "http://"+addr+"/v1/stats", nil)
		var payload struct{ Owned ownedStats }
		if err := json.Unmarshal(body, &payload); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("stats = %d %s: %v", resp.StatusCode, body, err)
		}
		return payload.Owned
	}
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rc := &rawConn{c: c, br: bufio.NewReader(c)}
			for range gets {
				if status, _, err := rc.roundTrip([]byte("GET /v1/cache/a/k HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil || status != http.StatusOK {
					t.Errorf("GET = %d, %v", status, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for last := int64(0); ; {
		select {
		case <-done:
			// A request is counted before its reply is written.
			if got, want := stats(), (ownedStats{clients, clients * gets, 0}); got != want {
				t.Fatalf("owned counts %+v, want %+v", got, want)
			}
			return
		default:
		}
		n := stats().Requests
		if n < last {
			t.Fatalf("owned requests went %d → %d", last, n)
		}
		last = n
	}
}

// ownedServer serves h from a plain http.Server on loopback and returns
// the server and its address.
func ownedServer(t *testing.T, h http.Handler) (*http.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// dialOwned opens a connection and sends one GET of path on it, which
// hands the connection to the handler.
func dialOwned(t *testing.T, addr, path string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	if _, err := io.WriteString(c, "GET "+path+" HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := readRaw(br, http.MethodGet); err != nil {
		t.Fatal(err)
	}
	return c, br
}

// goroutines counts the goroutines whose stack mentions fn.
func goroutines(fn string) int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), fn)
}

// waitGoroutines waits up to 5 s for at most n goroutines in fn.
func waitGoroutines(t *testing.T, fn string, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); goroutines(fn) > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still in %s, want at most %d", goroutines(fn), fn, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const (
	connGoroutine   = "serve.(*wireConn).serve"
	signalGoroutine = "serve.(*owner).Accept"
)

// TestCloseEndsOwnedConnections: http.Server.Close closes every
// connection the handler owns, and ends its goroutine, even while the
// peer keeps its end open — as a cluster peer's pool does with its idle
// connections.
func TestCloseEndsOwnedConnections(t *testing.T) {
	conns0, signals0 := goroutines(connGoroutine), goroutines(signalGoroutine)
	st := newStore(t, store.Config{Tenants: []string{"a"}})
	defer st.Close()
	srv, addr := ownedServer(t, serve.NewHandler(st, serve.Config{}))
	var readers []*bufio.Reader
	for _, key := range []string{"x", "y"} {
		_, br := dialOwned(t, addr, "/v1/cache/a/"+key)
		readers = append(readers, br)
	}
	if n := goroutines(connGoroutine); n != conns0+2 {
		t.Fatalf("%d owned connection goroutines, want %d", n, conns0+2)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i, br := range readers {
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("connection %d after Close: %v, want EOF", i, err)
		}
	}
	waitGoroutines(t, connGoroutine, conns0)
	waitGoroutines(t, signalGoroutine, signals0)
}

// TestShutdownDrainsOwnedConnections: http.Server.Shutdown closes an
// idle owned connection at once, lets an in-flight request — here a GET
// forwarded to a peer that holds it — finish with Connection: close, and
// does not return before it has.
func TestShutdownDrainsOwnedConnections(t *testing.T) {
	received, release := make(chan struct{}), make(chan struct{})
	peer := startFakeOwner(t, func(_ int64, _ string, c net.Conn) bool {
		close(received)
		<-release
		io.WriteString(c, "HTTP/1.1 204 No Content\r\n\r\n")
		return false
	})
	var freed sync.Once
	free := func() { freed.Do(func() { close(release) }) }
	t.Cleanup(free) // before the peer's own cleanup, which waits for it
	h := newEntry(t, peer.addr)
	srv := h.servers[0]
	local, remote := h.keyOwnedBy(0, "local"), h.keyOwnedBy(1, "remote")
	_, idle := dialOwned(t, h.nodes[0], "/v1/cache/alice/"+local)
	busy, busyReader := dialOwned(t, h.nodes[0], "/v1/cache/alice/"+local)
	if _, err := io.WriteString(busy, "GET /v1/cache/alice/"+remote+" HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	<-received
	shut := make(chan error, 1)
	go func() { shut <- srv.Config.Shutdown(context.Background()) }()
	if _, err := idle.ReadByte(); err != io.EOF {
		t.Fatalf("idle owned connection after Shutdown: %v, want EOF", err)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(200 * time.Millisecond):
	}
	free()
	raw, err := readRaw(busyReader, http.MethodGet)
	if err != nil || !strings.HasPrefix(raw, "HTTP/1.1 204 ") || !strings.Contains(raw, "Connection: close\r\n") {
		t.Fatalf("in-flight request during Shutdown = %q, %v; want the peer's 204 with Connection: close", raw, err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// BenchmarkServeGet times one 128-B GET over a loopback keep-alive
// connection, client and server in one process, on each transport:
// served on the connection the handler owns, and through net/http's
// server behind a wrapper. Allocations count the whole process; the
// client allocates nothing.
func BenchmarkServeGet(b *testing.B) {
	value := bytes.Repeat([]byte("v"), 128)
	for _, tr := range transports {
		b.Run(tr.name, func(b *testing.B) {
			srv, st, _ := newServerVia(b, tr, store.Config{Tenants: []string{"a"}}, serve.Config{})
			if _, err := st.Set("a", "k", value); err != nil {
				b.Fatal(err)
			}
			c, err := net.Dial("tcp", srv.Listener.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			rc := &rawConn{c: c, br: bufio.NewReaderSize(c, 4096)}
			req := []byte("GET /v1/cache/a/k HTTP/1.1\r\nHost: bench\r\n\r\n")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status, body, err := rc.roundTrip(req); err != nil || status != 200 || len(body) != len(value) {
					b.Fatalf("GET = %d, %d B, %v", status, len(body), err)
				}
			}
		})
	}
}

// BenchmarkServeForwardGet times one 128-B GET forwarded by one node of
// a 2-node fleet to the other, over a loopback keep-alive connection,
// everything in one process, with both nodes on each transport.
// Allocations count the whole process; the client allocates nothing.
func BenchmarkServeForwardGet(b *testing.B) {
	value := bytes.Repeat([]byte("v"), 128)
	for _, tr := range transports {
		b.Run(tr.name, func(b *testing.B) {
			h := newClusterWrapped(b, 2, 4096, func(_ int, h http.Handler) http.Handler { return tr.handler(h) })
			key := h.keyOwnedBy(1, "bench")
			if _, err := h.stores[1].Set("alice", key, value); err != nil {
				b.Fatal(err)
			}
			c, err := net.Dial("tcp", h.nodes[0])
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			rc := &rawConn{c: c, br: bufio.NewReaderSize(c, 4096)}
			req := []byte("GET /v1/cache/alice/" + key + " HTTP/1.1\r\nHost: bench\r\n\r\n")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status, body, err := rc.roundTrip(req); err != nil || status != 200 || len(body) != len(value) {
					b.Fatalf("GET = %d, %d B, %v", status, len(body), err)
				}
			}
		})
	}
}
