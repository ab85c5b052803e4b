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
// Content-Length, a HEAD's included.
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
	}
	return reply{resp.StatusCode, h, string(body)}
}

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
// aside — status line, header order, Date, Content-Length (also on
// HEAD), no body on 204 and 304, a sniffed Content-Type on a relayed
// body without one, Connection: close after a refused body, and none
// after a body the client cut short.
func TestWireMatchesNetHTTP(t *testing.T) {
	peer := startFakeOwner(t, func(_ int64, c net.Conn) bool {
		io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
		return false
	})
	type node struct {
		addr    string
		ring    *cluster.Ring
		hijacks *atomic.Int64
	}
	var nodes []node
	for _, tr := range transports {
		srv := httptest.NewUnstartedServer(nil)
		addr := srv.Listener.Addr().String()
		cl, err := cluster.New(cluster.Config{Self: addr, Nodes: []string{addr, peer.addr}, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		st := newStore(t, store.Config{Tenants: []string{"a"}, NodeID: "node"})
		srv.Config.Handler = tr.handler(serve.NewHandler(st, serve.Config{Cluster: cl, MaxValueBytes: 16}))
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
		nodes = append(nodes, node{addr, cl.Ring(), hijacks})
	}
	// keyOn returns a key of tenant every node's ring assigns to the
	// node itself, or to the peer.
	keyOn := func(tenant string, self bool) string {
		for k := 0; ; k++ {
			key := "k" + strconv.Itoa(k)
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
	local, remote := keyOn("a", true), keyOn("a", false)
	path := "/v1/cache/a/" + local
	get := func(target, extra string) string {
		return "GET " + target + " HTTP/1.1\r\nHost: x\r\n" + extra + "\r\n"
	}
	exchanges := []struct{ method, req string }{
		{"GET", get(path, "")},
		{"PUT", "PUT " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"},
		{"GET", get(path, "")},
		{"GET", get(path+"?x=1", "")},
		{"HEAD", "HEAD " + path + " HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"GET", get(path, "If-None-Match: *\r\n")},
		{"GET", get("/v1/cache/a/"+remote, "")},
		{"PUT", "PUT " + path + " HTTP/1.1\r\nHost: x\r\nX-Talus-TTL: soon\r\nContent-Length: 1\r\n\r\nx"},
		{"DELETE", "DELETE " + path + " HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"DELETE", "DELETE " + path + " HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"HEAD", "HEAD " + path + " HTTP/1.1\r\nHost: x\r\n\r\n"},
		{"GET", get("/v1/stats/", "")},
		{"GET", get("/v1/cache/a%2Fb/"+keyOn("a/b", true), "")},
		{"PUT", "PUT " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: 17\r\n\r\n" + strings.Repeat("v", 17)},
		// A second connection, whose client sends half a body and hangs up.
		{"GET", get(path, "")},
		{"PUT", "PUT " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nshort"},
	}
	const secondConn = 14 // the first exchange on the second connection
	var seen [2][]string
	for i, n := range nodes {
		var c net.Conn
		var br *bufio.Reader
		for j, x := range exchanges {
			if j == 0 || j == secondConn {
				if c != nil {
					if _, err := br.ReadByte(); err != io.EOF {
						t.Errorf("%s: connection open after a 413: %v", transports[i].name, err)
					}
					c.Close()
				}
				var err error
				if c, err = net.Dial("tcp", n.addr); err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(10 * time.Second))
				br = bufio.NewReader(c)
			}
			if _, err := io.WriteString(c, x.req); err != nil {
				t.Fatal(err)
			}
			if j == len(exchanges)-1 {
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
	for i, x := range exchanges {
		if seen[0][i] != seen[1][i] {
			t.Errorf("%q:\n%s:\n%s\n%s:\n%s", x.req, transports[0].name, seen[0][i], transports[1].name, seen[1][i])
		}
	}
	// The exchanges reach the cases the writer frames itself.
	all := strings.Join(seen[0], "")
	for _, want := range []string{"\r\nContent-Type: text/plain; charset=utf-8\r\n",
		"HTTP/1.1 413 Request Entity Too Large\r\n", "\r\nConnection: close\r\n"} {
		if !strings.Contains(all, want) {
			t.Errorf("no reply has %q", want)
		}
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
	peer := startFakeOwner(t, func(_ int64, c net.Conn) bool {
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
