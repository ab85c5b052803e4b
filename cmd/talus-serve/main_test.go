package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"talus"
)

// TestStalledPutBodyIsCutOff: a client that sends half a PUT body and
// then goes silent must not pin its handler goroutine. The server's
// read deadline fails the body read, the handler returns without
// storing anything, and the connection is closed.
func TestStalledPutBodyIsCutOff(t *testing.T) {
	st, err := talus.NewStore(talus.WithCapacityMB(0.25), talus.WithTenants("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	h := talus.NewServeHandler(st, talus.ServeConfig{})
	returned := make(chan struct{})
	srv := newServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned)
		h.ServeHTTP(w, r)
	}))
	if srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("newServer left a connection deadline unset: %+v", srv)
	}
	srv.ReadTimeout = 200 * time.Millisecond // same wiring as production, a test-sized wait

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "PUT /v1/cache/t/k HTTP/1.1\r\nHost: talus\r\nContent-Length: 100\r\n\r\nonly half of it"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still blocked on a stalled body 10s past a 200ms read deadline")
	}
	// The server answers the failed read (or not) and hangs up; either
	// way the client sees the end of the stream rather than a live
	// connection.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection not closed after the cut-off: %v", err)
	}
	if _, _, err := st.Get("t", "k"); !errors.Is(err, talus.ErrNotFound) {
		t.Fatalf("half a body was stored: Get = %v, want ErrNotFound", err)
	}
}

// ownedServer serves st's handler, unwrapped, from newServer with
// timeouts set by adjust, and reports whether the server hijacked a
// connection: the handler serving it itself.
func ownedServer(t *testing.T, st *talus.Store, adjust func(*http.Server)) (addr string, hijacked *atomic.Bool) {
	t.Helper()
	srv := newServer("", talus.NewServeHandler(st, talus.ServeConfig{}))
	adjust(srv)
	hijacked = new(atomic.Bool)
	srv.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateHijacked {
			hijacked.Store(true)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), hijacked
}

// getFirst dials addr and sends one GET, which hands the connection to
// the handler, and reads the reply. Later replies are read from br.
func getFirst(t *testing.T, addr string) (conn net.Conn, br *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := io.WriteString(conn, "GET /v1/cache/t/k HTTP/1.1\r\nHost: talus\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br = bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("first GET = %d, %v", resp.StatusCode, err)
	}
	return conn, br
}

// TestStalledPutAfterGetIsCutOff: on a connection the handler serves
// itself, a PUT whose body stalls is cut off by the server's
// ReadTimeout just as net/http's own connections are: nothing is stored
// and the connection closes.
func TestStalledPutAfterGetIsCutOff(t *testing.T) {
	st, err := talus.NewStore(talus.WithCapacityMB(0.25), talus.WithTenants("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr, hijacked := ownedServer(t, st, func(srv *http.Server) { srv.ReadTimeout = 200 * time.Millisecond })
	conn, br := getFirst(t, addr)
	if !hijacked.Load() {
		t.Fatal("the unwrapped handler did not take the connection over")
	}
	if _, err := io.WriteString(conn, "PUT /v1/cache/t/k HTTP/1.1\r\nHost: talus\r\nContent-Length: 100\r\n\r\nonly half of it"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Fatalf("connection not closed after the cut-off: %v", err)
	}
	if _, _, err := st.Get("t", "k"); !errors.Is(err, talus.ErrNotFound) {
		t.Fatalf("half a body was stored: Get = %v, want ErrNotFound", err)
	}
}

// TestIdleOwnedConnectionTimesOut: a connection the handler serves
// itself is closed after the server's IdleTimeout with no request.
func TestIdleOwnedConnectionTimesOut(t *testing.T) {
	st, err := talus.NewStore(talus.WithCapacityMB(0.25), talus.WithTenants("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr, hijacked := ownedServer(t, st, func(srv *http.Server) { srv.IdleTimeout = 200 * time.Millisecond })
	conn, br := getFirst(t, addr)
	if !hijacked.Load() {
		t.Fatal("the unwrapped handler did not take the connection over")
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	if n, err := io.Copy(io.Discard, br); err != nil || n != 0 {
		t.Fatalf("idle connection: read %d B, %v; want the server to close it", n, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("idle connection closed after %v, IdleTimeout 200ms", waited)
	}
}
