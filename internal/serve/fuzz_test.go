package serve_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"log"
	"net/http"
	"net/url"
	"reflect"
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
	405: true, 408: true, 413: true, 429: true, 500: true, 502: true,
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

// handlerSeeds are FuzzHandler's seed inputs, each sent after a clean
// GET of /v1/cache/fuzz/k.
var handlerSeeds = []string{
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
}

// firstGET is the clean GET each fuzz input follows, so that an owned
// connection serves what comes after it.
const firstGET = "GET /v1/cache/fuzz/k HTTP/1.1\r\nHost: fuzz\r\n\r\n"

// newFuzzStore is the store the fuzzers serve: tenants fuzz and a only,
// on a clock that stands still.
func newFuzzStore(t testing.TB) *store.Store {
	ac, err := adaptive.Build("vantage", 4096, 16, 1, 2, 0.05, adaptive.Config{EpochAccesses: 1 << 14, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(ac, store.Config{Tenants: []string{"fuzz", "a"}, Static: true})
	if err != nil {
		t.Fatal(err)
	}
	st.SetNow(newFakeClock().Now)
	return st
}

// FuzzHandler writes one clean GET and then arbitrary bytes on a
// keep-alive connection to the unwrapped handler, behind its own
// http.Server on in-memory connections, and half-closes the connection. Every reply
// must parse as a framed HTTP/1.x response with a status in
// replyStatuses, the server must end the connection before
// fuzzDeadline, no request may panic the handler, and a fresh
// connection must still get a PUT and a GET answered afterwards.
func FuzzHandler(f *testing.F) {
	for _, seed := range handlerSeeds {
		f.Add([]byte(seed))
	}
	st := newFuzzStore(f)
	logged := &panicLog{}
	srv := &http.Server{Handler: serve.NewHandler(st, serve.Config{MaxValueBytes: 64}), ErrorLog: log.New(logged, "", 0)}
	ln := newPipeListener()
	go srv.Serve(ln)
	f.Cleanup(func() {
		srv.Close()
		st.Close()
	})

	f.Fuzz(func(t *testing.T, in []byte) {
		in = append([]byte(firstGET), in...)
		replies, err := converse(ln, in, st)
		if err != nil {
			t.Fatalf("after %d well-formed replies: %v", len(replies), err)
		}
		if len(replies) == 0 {
			t.Fatal("no reply to the first GET")
		}
		if lines := logged.take(); len(lines) > 0 {
			t.Fatalf("the handler panicked: %s", lines[0])
		}
		health := "PUT /v1/cache/fuzz/health HTTP/1.1\r\nHost: fuzz\r\nContent-Length: 2\r\n\r\nok" +
			"GET /v1/cache/fuzz/health HTTP/1.1\r\nHost: fuzz\r\n\r\n"
		c, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(fuzzDeadline))
		go io.WriteString(c, health) // an in-memory write waits for the server to read it
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

// wireSeeds are the requests of TestWireMatchesNetHTTP, on the fuzz
// tenant: values past net/http's 2 KiB response buffer and an empty one
// (stored by FuzzWireDifferential before each input), revalidation, a
// bad TTL, a refused and a cut body, an escaped tenant.
var wireSeeds = []string{
	"GET /v1/cache/fuzz/big HTTP/1.1\r\nHost: x\r\n\r\nHEAD /v1/cache/fuzz/big HTTP/1.1\r\nHost: x\r\n\r\n",
	"HEAD /v1/cache/fuzz/empty HTTP/1.1\r\nHost: x\r\n\r\nGET /v1/cache/fuzz/empty HTTP/1.1\r\nHost: x\r\n\r\n",
	"PUT /v1/cache/fuzz/k HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello" +
		"GET /v1/cache/fuzz/k HTTP/1.1\r\nHost: x\r\nIf-None-Match: *\r\n\r\n",
	"PUT /v1/cache/fuzz/k HTTP/1.1\r\nHost: x\r\nX-Talus-TTL: soon\r\nContent-Length: 1\r\n\r\nx",
	"DELETE /v1/cache/fuzz/big HTTP/1.1\r\nHost: x\r\n\r\nDELETE /v1/cache/fuzz/big HTTP/1.1\r\nHost: x\r\n\r\n" +
		"HEAD /v1/cache/fuzz/big HTTP/1.1\r\nHost: x\r\n\r\n",
	"GET /v1/stats/ HTTP/1.1\r\nHost: x\r\n\r\nGET /v1/cache/a%2Fb/k HTTP/1.1\r\nHost: x\r\n\r\n",
	"PUT /v1/cache/fuzz/k HTTP/1.1\r\nHost: x\r\nContent-Length: 65\r\n\r\n" + strings.Repeat("v", 65),
}

// FuzzWireDifferential sends each input, after a clean GET, to two fresh
// handlers over identical stores on a clock that stands still: one its
// server's own Handler, which serves the connection itself, and one
// behind a wrapper, which leaves every request to net/http's server.
// Both must write the same replies, status, headers (Date masked) and
// body, and leave the stores with the same counts. Both transports
// frame every reply by Content-Length, so no difference is expected.
func FuzzWireDifferential(f *testing.F) {
	for _, seed := range append(wireSeeds, handlerSeeds...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		in = append([]byte(firstGET), in...)
		var replies [2][]reply
		var stats [2][]store.TenantStats
		for i, tr := range transports {
			st := newFuzzStore(t)
			for _, v := range []struct {
				key  string
				size int
			}{{"big", 64 << 10}, {"empty", 0}} {
				if _, err := st.Set("fuzz", v.key, bytes.Repeat([]byte{'b'}, v.size)); err != nil {
					t.Fatal(err)
				}
			}
			logged := &panicLog{}
			srv := &http.Server{Handler: tr.handler(serve.NewHandler(st, serve.Config{MaxValueBytes: 64})), ErrorLog: log.New(logged, "", 0)}
			ln := newPipeListener()
			go srv.Serve(ln)
			var err error
			replies[i], err = converse(ln, in, st)
			srv.Close()
			stats[i] = st.StatsAll()
			st.Close()
			if err != nil {
				t.Fatalf("%s: after %d well-formed replies: %v", tr.name, len(replies[i]), err)
			}
			if lines := logged.take(); len(lines) > 0 {
				t.Fatalf("%s: the handler panicked: %s", tr.name, lines[0])
			}
		}
		sameReplies(t, replies[:])
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Errorf("stores differ:\n%s: %+v\n%s: %+v", transports[0].name, stats[0], transports[1].name, stats[1])
		}
	})
}

// requests parses in the way a server does and returns each request up
// to the first one that does not parse.
func requests(in []byte) []*http.Request {
	var reqs []*http.Request
	br := bufio.NewReader(bytes.NewReader(in))
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return reqs
		}
		reqs = append(reqs, req)
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return reqs
		}
	}
}

// converse writes in on a fresh connection to ln, half-closes it and
// reads replies until the server ends the connection, the i-th final
// reply framed as the answer to the i-th request in (a GET past the
// last that parses). It returns the replies that parsed, as newReply
// records them from a server over st, and the first thing wrong: a
// reply that does not parse or frame, a status outside replyStatuses,
// or a server still holding the connection open at the deadline. A
// reset ends the exchange cleanly wherever it comes: a server that
// closes with input unread resets the connection, which may drop reply
// bytes already sent.
func converse(ln *pipeListener, in []byte, st *store.Store) ([]reply, error) {
	reqs := requests(in)
	c, err := ln.Dial()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(fuzzDeadline))
	go func() {
		// The server may hang up before it has read everything (a 400
		// closes); what it replied is read below either way.
		c.Write(in)
		c.(*pipeConn).CloseWrite()
	}()
	br := bufio.NewReader(c)
	var replies []reply
	for final := 0; ; {
		req := &http.Request{Method: http.MethodGet, URL: new(url.URL)}
		if final < len(reqs) {
			req = reqs[final]
		}
		if _, err := br.Peek(1); hungUp(err) {
			return replies, nil // the server ended the connection between replies
		}
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			return replies, reset(err)
		}
		if !replyStatuses[resp.StatusCode] {
			return replies, errors.New("undocumented status " + resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return replies, reset(err)
		}
		replies = append(replies, newReply(resp, body, st))
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
