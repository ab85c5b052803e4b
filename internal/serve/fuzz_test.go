package serve_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"talus/internal/adaptive"
	"talus/internal/serve"
	"talus/internal/store"
)

// replyStatuses are the statuses a reply may carry: the ones doc.go
// documents for its routes, and the ones net/http's server emits on its
// own (100 Continue, 400 for a malformed request, 417 for an Expect it
// does not know, 431 for an oversized head, 501 for an unknown transfer
// coding, 505 for an unsupported protocol version).
var replyStatuses = map[int]bool{
	200: true, 204: true, 301: true, 304: true, 400: true, 403: true, 404: true,
	405: true, 409: true, 413: true, 429: true, 500: true, 502: true,
	100: true, 417: true, 431: true, 501: true, 505: true,
}

// fuzzDeadline bounds one input's whole exchange: past it the server is
// hanging.
const fuzzDeadline = 10 * time.Second

// panicLog collects the lines net/http's server logs, so a handler panic
// it recovered from is still seen.
type panicLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *panicLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if bytes.Contains(p, []byte("panic")) {
		l.lines = append(l.lines, string(p))
	}
	return len(p), nil
}

func (l *panicLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	lines := l.lines
	l.lines = nil
	return lines
}

// FuzzHandler writes one clean GET and then arbitrary bytes on a
// keep-alive connection to the unwrapped handler, behind its own
// http.Server on loopback, and half-closes the connection. Every reply
// must parse as a framed HTTP/1.x response with a status in
// replyStatuses, the server must end the connection before
// fuzzDeadline, no request may panic the handler, and a fresh
// connection must still get a PUT and a GET answered afterwards.
func FuzzHandler(f *testing.F) {
	for _, seed := range []string{
		"GET /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\n\r\n",
		"PUT /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 3\r\n\r\nabc",
		"HEAD /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\n\r\n",
		"DELETE /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\n\r\n",
		"GET /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\nIf-None-Match: *\r\n\r\n",
		"PUT /v1/cache/fuzz/big HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 100\r\n\r\n" + strings.Repeat("x", 100),
		"PUT /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 10\r\n\r\nshort",
		"PUT /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"PUT /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi",
		"PUT /v1/cache/fuzz/t HTTP/1.1\r\nHost: fuzz\r\nX-Talus-TTL: -1\r\nContent-Length: 1\r\n\r\nx",
		"GET /v1/cache/fuzz/../a/k HTTP/1.1\r\nHost: fuzz\r\n\r\n",
		"GET /v1/cache/fuzz/k%zz HTTP/1.1\r\nHost: fuzz\r\n\r\n",
		"GET /v1/cache/fuzz/k HTTP/1.0\r\n\r\n",
		"GET /v1/cache/fuzz/k HTTP/1.1\r\n\r\n",
		"GET /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\r\n",
		"GET /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\n folded\r\n\r\n",
		"GET /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\nX-Pad: " + strings.Repeat("a", 5000) + "\r\n\r\n",
		"GET /v1/cache/fuzz/k?x=1 HTTP/1.1\r\nHost: fuzz\r\n\r\nGET /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\n\r\n",
		"GET /v1/stats HTTP/1.1\r\nHost: fuzz\r\n\r\n",
		"POST /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 0\r\n\r\n",
		"garbage\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	ac, err := adaptive.Build("vantage", 4096, 16, 1, 2, 0.05, adaptive.Config{EpochAccesses: 1 << 14, Seed: 33})
	if err != nil {
		f.Fatal(err)
	}
	st, err := store.New(ac, store.Config{Tenants: []string{"fuzz", "a"}, Static: true})
	if err != nil {
		f.Fatal(err)
	}
	logged := &panicLog{}
	srv := httptest.NewUnstartedServer(serve.NewHandler(st, serve.Config{MaxValueBytes: 64}))
	srv.Config.ErrorLog = log.New(logged, "", 0)
	srv.Start()
	f.Cleanup(func() {
		srv.Close()
		srv.Config.Close()
		st.Close()
	})
	addr := srv.Listener.Addr().String()

	f.Fuzz(func(t *testing.T, in []byte) {
		const first = "GET /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\n\r\n"
		methods := append([]string{http.MethodGet}, requestMethods(in)...)
		replies, err := exchange(addr, append([]byte(first), in...), methods)
		if err != nil {
			t.Fatalf("after %d well-formed replies: %v", replies, err)
		}
		if replies == 0 {
			t.Fatal("no reply to the first GET")
		}
		if lines := logged.take(); len(lines) > 0 {
			t.Fatalf("the handler panicked: %s", lines[0])
		}
		health := "PUT /v1/cache/fuzz/health HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 2\r\n\r\nok" +
			"GET /v1/cache/fuzz/health HTTP/1.1\r\nHost: fuzz\r\n\r\n"
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(fuzzDeadline))
		if _, err := io.WriteString(c, health); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(c)
		for i, want := range []int{204, 200} {
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("fresh connection, reply %d: %v", i, err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != want || (want == 200 && string(body) != "ok") {
				t.Fatalf("fresh connection, reply %d = %d %q (%v), want %d", i, resp.StatusCode, body, err, want)
			}
		}
	})
}

// requestMethods parses in the way a server does and returns the method
// of each request up to the first one that does not parse.
func requestMethods(in []byte) []string {
	var methods []string
	br := bufio.NewReader(bytes.NewReader(in))
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return methods
		}
		methods = append(methods, req.Method)
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return methods
		}
	}
}

// exchange writes req on a fresh connection, half-closes it and reads
// replies until the server ends the connection, the i-th final reply
// framed as the answer to a methods[i] request. It returns how many
// replies parsed, and the first thing wrong: a reply that does not
// parse or frame, a status outside replyStatuses, or a server still
// holding the connection open at the deadline. A reset ends the
// exchange cleanly wherever it comes: a server that closes with input
// unread resets the connection, which may drop reply bytes already
// sent.
func exchange(addr string, req []byte, methods []string) (int, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(fuzzDeadline))
	go func() {
		// The server may hang up before it has read everything (a 400
		// closes); what it replied is read below either way.
		c.Write(req)
		c.(*net.TCPConn).CloseWrite()
	}()
	br := bufio.NewReader(c)
	replies, final := 0, 0
	for {
		method := http.MethodGet
		if final < len(methods) {
			method = methods[final]
		}
		if _, err := br.Peek(1); hungUp(err) {
			return replies, nil // the server ended the connection between replies
		}
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			return replies, reset(err)
		}
		if !replyStatuses[resp.StatusCode] {
			return replies, errors.New("undocumented status " + resp.Status)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return replies, reset(err)
		}
		replies++
		if resp.StatusCode >= 200 {
			final++
		}
		if resp.Close {
			// The server hangs up after this reply. Its own error replies
			// carry a body even to a HEAD, so whatever follows is read
			// up to the end of the stream, which must come.
			if _, err := io.Copy(io.Discard, br); err != nil && !hungUp(err) {
				return replies, err
			}
			return replies, nil
		}
	}
}

// reset drops err when it is a reset.
func reset(err error) error {
	if errors.Is(err, syscall.ECONNRESET) {
		return nil
	}
	return err
}

// hungUp reports whether err is the server ending the connection: an
// orderly close, or a reset when it closed with input left unread.
func hungUp(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET)
}
