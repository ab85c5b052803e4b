package cluster

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakePeer is a raw-TCP peer: it reads each request whole, records it,
// and writes what answer returns for it, hanging up after when told to.
type fakePeer struct {
	addr   string
	answer func(i int, req string) (resp string, hangUp bool)

	mu    sync.Mutex
	reqs  []string
	conns []net.Conn
}

func startFakePeer(t *testing.T, answer func(i int, req string) (string, bool)) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakePeer{addr: ln.Addr().String(), answer: answer}
	var wg sync.WaitGroup
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns = append(f.conns, c)
			f.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, ok := readRequest(br)
					if !ok {
						return
					}
					f.mu.Lock()
					i := len(f.reqs)
					f.reqs = append(f.reqs, req)
					f.mu.Unlock()
					resp, hangUp := f.answer(i, req)
					if _, err := c.Write([]byte(resp)); err != nil || hangUp {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.mu.Lock()
		for _, c := range f.conns {
			c.Close()
		}
		f.mu.Unlock()
		wg.Wait()
	})
	return f
}

// readRequest reads one request — headers and Content-Length body — as
// raw text.
func readRequest(br *bufio.Reader) (string, bool) {
	var b strings.Builder
	length := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", false
		}
		b.WriteString(line)
		if line == "\r\n" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			length, _ = strconv.Atoi(strings.TrimSpace(v))
		}
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(br, body); err != nil {
		return "", false
	}
	b.Write(body)
	return b.String(), true
}

func (f *fakePeer) counts() (reqs, conns int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.reqs), len(f.conns)
}

// newTestCluster is a two-member cluster, "self:1" and peer.
func newTestCluster(t *testing.T, peer string) *Cluster {
	t.Helper()
	c, err := New(Config{Self: "self:1", Nodes: []string{"self:1", peer}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// writeRecorder records every call a relay makes on its ResponseWriter.
type writeRecorder struct {
	*httptest.ResponseRecorder
	calls int
}

func (w *writeRecorder) WriteHeader(status int) {
	w.calls++
	w.ResponseRecorder.WriteHeader(status)
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.calls++
	return w.ResponseRecorder.Write(p)
}

func newWriteRecorder() *writeRecorder {
	return &writeRecorder{ResponseRecorder: httptest.NewRecorder()}
}

// TestRelayWireFormat pins the request the hop writes: method, escaped
// path, Host, the forwarded mark naming the sender, the three relayed
// request headers and no others, Content-Length and the body.
func TestRelayWireFormat(t *testing.T) {
	f := startFakePeer(t, func(int, string) (string, bool) { return "HTTP/1.1 204 No Content\r\n\r\n", false })
	c := newTestCluster(t, f.addr)
	hdr := http.Header{}
	hdr.Set("If-None-Match", `"t"`)
	hdr.Set("X-Talus-TTL", "5")
	hdr.Set("Content-Type", "text/plain")
	hdr.Set("Cookie", "session=1")
	hdr.Set("Connection", "close")
	if err := c.Relay(context.Background(), newWriteRecorder(), http.MethodPut, f.addr, "/v1/cache/a/k%2Fx", []byte("hello"), hdr); err != nil {
		t.Fatal(err)
	}
	if err := c.Relay(context.Background(), newWriteRecorder(), http.MethodPut, f.addr, "/v1/cache/a/empty", []byte{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Relay(context.Background(), newWriteRecorder(), http.MethodGet, f.addr, "/v1/cache/a/k", nil, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"PUT /v1/cache/a/k%2Fx HTTP/1.1\r\nHost: " + f.addr + "\r\nX-Talus-Forwarded: self:1\r\n" +
			"If-None-Match: \"t\"\r\nX-Talus-Ttl: 5\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello",
		"PUT /v1/cache/a/empty HTTP/1.1\r\nHost: " + f.addr + "\r\nX-Talus-Forwarded: self:1\r\nContent-Length: 0\r\n\r\n",
		"GET /v1/cache/a/k HTTP/1.1\r\nHost: " + f.addr + "\r\nX-Talus-Forwarded: self:1\r\n\r\n",
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, w := range want {
		if f.reqs[i] != w {
			t.Errorf("request %d:\n got %q\nwant %q", i, f.reqs[i], w)
		}
	}
	if len(f.conns) != 1 {
		t.Errorf("three requests took %d connections, want 1 pooled", len(f.conns))
	}
}

// TestRelayFraming: each framing the hop accepts relays the same status,
// headers and body, and only a response consumed whole on a connection
// the owner keeps open leaves the connection pooled.
func TestRelayFraming(t *testing.T) {
	big := strings.Repeat("0123456789", 1000) // past the 4 KiB read buffer
	for _, c := range []struct {
		name, method, resp string
		status             int
		hdr                map[string]string
		body               string
		pooled             bool
	}{
		{"content-length", "GET", "HTTP/1.1 200 OK\r\nX-Talus-Cache: hit\r\nX-Talus-Node: NODE\r\nEtag: \"e\"\r\n" +
			"Content-Type: application/octet-stream\r\nDate: now\r\nContent-Length: 5\r\n\r\nhello",
			200, map[string]string{"X-Talus-Cache": "hit", "X-Talus-Node": "NODE", "Etag": `"e"`,
				"Content-Type": "application/octet-stream", "Date": ""}, "hello", true},
		{"beyond the buffer", "GET", "HTTP/1.1 200 OK\r\nContent-Length: 10000\r\n\r\n" + big, 200, nil, big, true},
		{"chunked with trailer", "GET", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nx-talus-cache: miss\r\n\r\n" +
			"5\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n", 200, map[string]string{"X-Talus-Cache": "miss"}, "hello world", true},
		{"connection close", "GET", "HTTP/1.1 404 Not Found\r\nConnection: close\r\nContent-Type: application/json\r\n" +
			"Content-Length: 2\r\n\r\n{}", 404, map[string]string{"Content-Type": "application/json"}, "{}", false},
		{"close-delimited", "GET", "HTTP/1.1 200 OK\r\n\r\nuntil EOF", 200, nil, "until EOF", false},
		{"not modified", "GET", "HTTP/1.1 304 Not Modified\r\nEtag: \"e\"\r\n\r\n", 304, map[string]string{"Etag": `"e"`}, "", true},
		{"head", "HEAD", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n", 200, nil, "", true},
		{"relayed 5xx", "GET", "HTTP/1.1 502 Bad Gateway\r\nContent-Length: 3\r\n\r\nbad", 502, nil, "bad", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var f *fakePeer
			f = startFakePeer(t, func(i int, _ string) (string, bool) {
				if i == 0 {
					return strings.ReplaceAll(c.resp, "NODE", f.addr), c.name == "close-delimited"
				}
				return "HTTP/1.1 204 No Content\r\n\r\n", false
			})
			cl := newTestCluster(t, f.addr)
			w := newWriteRecorder()
			if err := cl.Relay(context.Background(), w, c.method, f.addr, "/v1/cache/a/k", nil, nil); err != nil {
				t.Fatal(err)
			}
			if w.Code != c.status || w.Body.String() != c.body {
				t.Fatalf("relayed %d %q, want %d %q", w.Code, w.Body.String(), c.status, c.body)
			}
			for k, v := range c.hdr {
				if got := w.Header().Get(k); got != strings.ReplaceAll(v, "NODE", f.addr) {
					t.Fatalf("relayed %s = %q, want %q", k, got, v)
				}
			}
			if err := cl.Relay(context.Background(), newWriteRecorder(), http.MethodGet, f.addr, "/v1/cache/a/k", nil, nil); err != nil {
				t.Fatal(err)
			}
			if _, conns := f.counts(); (conns == 1) != c.pooled {
				t.Fatalf("the next request took connection %d, want pooled=%v", conns, c.pooled)
			}
		})
	}
}

// TestRelayMalformedIsAnErrorBeforeAnyWrite: a response outside the
// subset, or one cut short, leaves w untouched for the caller's 502, and
// the request — which reached the owner — is not sent again.
func TestRelayMalformedIsAnErrorBeforeAnyWrite(t *testing.T) {
	for _, resp := range []string{
		"HTTP/1.1 OK\r\n\r\n",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		"HTTP/1.1 200 OK\r\nno colon\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nContent-Length: 10000\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
		"HTTP/1.1 200 OK\r\nContent-Le",
		"",
	} {
		f := startFakePeer(t, func(int, string) (string, bool) { return resp, true })
		c := newTestCluster(t, f.addr)
		w := newWriteRecorder()
		if err := c.Relay(context.Background(), w, http.MethodPut, f.addr, "/v1/cache/a/k", []byte("v"), nil); err == nil {
			t.Errorf("%q: relayed without error", resp)
		}
		if w.calls != 0 || len(w.Header()) != 0 {
			t.Errorf("%q: %d writes and headers %v before the error", resp, w.calls, w.Header())
		}
		if reqs, _ := f.counts(); reqs != 1 {
			t.Errorf("%q: owner received %d requests, want 1", resp, reqs)
		}
	}
}

// TestRelayResendsOnlyUnsent: a pooled connection the owner closed while
// idle is re-sent on a fresh dial — the owner handled nothing on it — but
// a fresh connection that ends unanswered may have been applied and is
// not.
func TestRelayResendsOnlyUnsent(t *testing.T) {
	f := startFakePeer(t, func(i int, _ string) (string, bool) {
		// The first answer keeps the connection open as far as the client
		// can tell, then the owner drops it: a stale pooled connection.
		return "HTTP/1.1 204 No Content\r\n\r\n", i == 0
	})
	c := newTestCluster(t, f.addr)
	for i := 0; i < 2; i++ {
		if err := c.Relay(context.Background(), newWriteRecorder(), http.MethodDelete, f.addr, "/v1/cache/a/k", nil, nil); err != nil {
			t.Fatalf("relay %d over a stale pooled connection: %v", i, err)
		}
	}
	if reqs, conns := f.counts(); reqs != 2 || conns != 2 {
		t.Fatalf("owner handled %d requests on %d connections, want 2 on 2", reqs, conns)
	}

	silent := startFakePeer(t, func(int, string) (string, bool) { return "", true })
	c = newTestCluster(t, silent.addr)
	if err := c.Relay(context.Background(), newWriteRecorder(), http.MethodDelete, silent.addr, "/v1/cache/a/k", nil, nil); err == nil {
		t.Fatal("a fresh connection closed unanswered relayed without error")
	}
	if reqs, _ := silent.counts(); reqs != 1 {
		t.Fatalf("owner received the DELETE %d times, want once", reqs)
	}

	// A pooled connection that dies after the first response byte was
	// answered on: not re-sent either.
	half := startFakePeer(t, func(i int, _ string) (string, bool) {
		if i == 0 {
			return "HTTP/1.1 204 No Content\r\n\r\n", false
		}
		return "HTTP/1.1 20", true
	})
	c = newTestCluster(t, half.addr)
	if err := c.Relay(context.Background(), newWriteRecorder(), http.MethodDelete, half.addr, "/v1/cache/a/k", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Relay(context.Background(), newWriteRecorder(), http.MethodDelete, half.addr, "/v1/cache/a/k", nil, nil); err == nil {
		t.Fatal("a pooled connection cut mid-status-line relayed without error")
	}
	if reqs, _ := half.counts(); reqs != 2 {
		t.Fatalf("owner received %d DELETEs for 2 sent, want each once", reqs)
	}
}

// TestRelayHonoursContext: the caller giving up ends the attempt at once
// rather than at DefaultTimeout, and it is not re-sent.
func TestRelayHonoursContext(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	f := startFakePeer(t, func(int, string) (string, bool) {
		<-hold
		return "", true
	})
	c := newTestCluster(t, f.addr)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Relay(ctx, newWriteRecorder(), http.MethodGet, f.addr, "/v1/cache/a/k", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("relay with an expiring context = %v", err)
	}
	if d := time.Since(start); d > DefaultTimeout/2 {
		t.Fatalf("relay took %v after its context ended", d)
	}
	if reqs, _ := f.counts(); reqs != 1 {
		t.Fatalf("owner received %d requests, want 1", reqs)
	}
}

// TestRelayConcurrent: goroutines sharing one peer's pool each get their
// own answer back, and no more connections are dialled than are ever in
// use at once.
func TestRelayConcurrent(t *testing.T) {
	const workers, each = 8, 50
	f := startFakePeer(t, func(_ int, req string) (string, bool) {
		path := strings.Fields(req)[1]
		return "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(len(path)) + "\r\n\r\n" + path, false
	})
	c := newTestCluster(t, f.addr)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				path := "/v1/cache/a/" + strconv.Itoa(g) + "-" + strconv.Itoa(i)
				w := newWriteRecorder()
				if err := c.Relay(context.Background(), w, http.MethodGet, f.addr, path, nil, nil); err != nil || w.Body.String() != path {
					t.Errorf("relay %s = %q, %v", path, w.Body.String(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if reqs, conns := f.counts(); reqs != workers*each || conns > workers {
		t.Fatalf("%d requests on %d connections, want %d on at most %d", reqs, conns, workers*each, workers)
	}
}

func TestRelayRefusesNonPeers(t *testing.T) {
	c := newTestCluster(t, "peer:1")
	for _, owner := range []string{"self:1", "stranger:1"} {
		if err := c.Relay(context.Background(), newWriteRecorder(), http.MethodGet, owner, "/", nil, nil); err == nil {
			t.Errorf("relay to %q succeeded", owner)
		}
	}
}
