package main

import (
	"errors"
	"io"
	"net"
	"net/http"
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
