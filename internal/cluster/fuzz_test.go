package cluster

import (
	"bufio"
	"context"
	"net"
	"strings"
	"testing"
	"time"
)

// relayDeadline bounds one input's relay: past it the hop is hanging.
const relayDeadline = 10 * time.Second

// FuzzRelay answers one relayed GET with arbitrary bytes from an owner
// on an in-memory connection, which then hangs up. Relay must return
// within relayDeadline, without a panic, in one of two ways: an error,
// with the reply untouched; or a reply whose status is 200–999, whose
// header values hold no CR or LF, and whose body is no longer than what
// the owner sent.
func FuzzRelay(f *testing.F) {
	for _, c := range framings {
		f.Add([]byte(c.resp))
	}
	for _, resp := range malformed {
		f.Add([]byte(resp))
	}
	f.Add([]byte("HTTP/1.1 200 OK\r\nX-Talus-Node: a\rb\r\nEtag: \"e\rf\"\r\nContent-Type: \r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 999999999999999999\r\n\r\nabc"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nfffffffffffffff\r\nabc"))
	accepted := dialPipes(f)
	const owner = "owner:1"

	f.Fuzz(func(t *testing.T, resp []byte) {
		cl, err := New(Config{Self: "self:1", Nodes: []string{"self:1", owner}})
		if err != nil {
			t.Fatal(err)
		}
		rep := new(Reply)
		done := make(chan error, 1)
		go func() { done <- cl.Relay(context.Background(), owner, get("/v1/cache/a/k"), rep) }()
		var c net.Conn
		select {
		case c = <-accepted:
		case err = <-done:
			t.Fatalf("relay returned %v before it dialled", err)
		}
		c.SetDeadline(time.Now().Add(relayDeadline))
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			if _, ok := readRequest(bufio.NewReader(c)); ok {
				c.Write(resp)
			}
			c.Close()
		}()
		select {
		case err = <-done:
		case <-time.After(relayDeadline):
			t.Fatalf("relay still running after %v", relayDeadline)
		}
		for _, p := range cl.peers { // a pooled connection the owner may still be writing to
			for pc := p.get(); pc != nil; pc = p.get() {
				pc.nc.Close()
			}
		}
		<-answered
		if err != nil {
			if !untouched(rep) {
				t.Fatalf("error %v, and the reply has status %d, %d body bytes", err, rep.Status, len(rep.Body))
			}
			return
		}
		if rep.Status < 200 || rep.Status > 999 {
			t.Fatalf("relayed status %d", rep.Status)
		}
		for _, k := range relayedHeaders {
			if v := header(rep, k); strings.ContainsAny(v, "\r\n") {
				t.Fatalf("relayed %s %q holds a CR or LF", k, v)
			}
		}
		if len(rep.Body) > len(resp) {
			t.Fatalf("relayed a %d-byte body from %d bytes sent", len(rep.Body), len(resp))
		}
	})
}
