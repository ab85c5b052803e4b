package serve_test

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"talus/internal/serve"
	"talus/internal/store"
)

// putRequest renders a PUT of body to key of tenant alice, framed by
// Content-Length.
func putRequest(key string, body []byte) string {
	return "PUT /v1/cache/alice/" + key + " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + string(body)
}

// TestKeptBodiesAreTheirOwn: the store keeps the body the handler read
// for a PUT, so every body must be storage of its own, never the
// connection's reader. Two PUTs pipelined in one write on an owned
// connection, and a third relayed to the key's owner, each read back
// their own bytes afterwards, and each held value's capacity is its
// length. The second body is over 64 KiB, which cluster.ReadFull reads
// in two steps.
func TestKeptBodiesAreTheirOwn(t *testing.T) {
	h := newCluster(t, 2, 4096)
	keys := []string{h.keyOwnedBy(0, "first"), h.keyOwnedBy(0, "second"), h.keyOwnedBy(1, "relayed")}
	bodies := [][]byte{
		bytes.Repeat([]byte("1"), 100),
		bytes.Repeat([]byte("2"), 70<<10),
		bytes.Repeat([]byte("3"), 3000),
	}
	c, err := net.Dial("tcp", h.nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	// A GET first, so that the handler owns the connection.
	if _, err := io.WriteString(c, "GET /v1/cache/alice/"+keys[0]+" HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if raw, err := readRaw(br, http.MethodGet); err != nil || !strings.HasPrefix(raw, "HTTP/1.1 404 ") {
		t.Fatalf("first GET = %q, %v", raw, err)
	}
	var pipelined strings.Builder
	for i, k := range keys {
		pipelined.WriteString(putRequest(k, bodies[i]))
	}
	go io.WriteString(c, pipelined.String())
	for _, k := range keys {
		if raw, err := readRaw(br, http.MethodPut); err != nil || !strings.HasPrefix(raw, "HTTP/1.1 204 ") {
			t.Fatalf("PUT %s = %q, %v", k, raw, err)
		}
	}
	for i, k := range keys {
		if _, err := io.WriteString(c, "GET /v1/cache/alice/"+k+" HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		raw, err := readRaw(br, http.MethodGet)
		if err != nil || !strings.HasPrefix(raw, "HTTP/1.1 200 ") || !strings.HasSuffix(raw, "\r\n\r\n"+string(bodies[i])) {
			t.Fatalf("GET %s = %.80q…, %v; want its own %d bytes", k, raw, err, len(bodies[i]))
		}
		owner := h.stores[0]
		if i == 2 {
			owner = h.stores[1]
		}
		if v, _, err := owner.Get("alice", k); err != nil || !bytes.Equal(v, bodies[i]) || cap(v) != len(v) {
			t.Errorf("the owner holds %s as %d bytes of capacity %d, %v; want %d of capacity %d",
				k, len(v), cap(v), err, len(bodies[i]), len(bodies[i]))
		}
	}
}

// TestHeldValuesAreExact: on either transport, a value the store holds
// for a PUT has capacity equal to its length, whatever storage its body
// was read into, so the bytes the store counts are the bytes it holds:
// a body framed by Content-Length, over 64 KiB or not, and a chunked
// one, which net/http reads into storage that outgrows its length.
func TestHeldValuesAreExact(t *testing.T) {
	for _, tr := range transports {
		srv, st, _ := newServerVia(t, tr, store.Config{Tenants: []string{"alice"}}, serve.Config{})
		bodies := map[string][]byte{
			"small":   bytes.Repeat([]byte("s"), 100),
			"large":   bytes.Repeat([]byte("l"), 100<<10),
			"chunked": bytes.Repeat([]byte("c"), 5000),
		}
		c, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(c)
		reqs := []string{
			"GET /v1/cache/alice/small HTTP/1.1\r\nHost: x\r\n\r\n",
			putRequest("small", bodies["small"]),
			putRequest("large", bodies["large"]),
			"PUT /v1/cache/alice/chunked HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" +
				"7d0\r\n" + string(bodies["chunked"][:2000]) + "\r\nbb8\r\n" + string(bodies["chunked"][2000:]) + "\r\n0\r\n\r\n",
		}
		for i, req := range reqs {
			method, want := http.MethodPut, "HTTP/1.1 204 "
			if i == 0 {
				method, want = http.MethodGet, "HTTP/1.1 404 "
			}
			if _, err := io.WriteString(c, req); err != nil {
				t.Fatal(err)
			}
			if raw, err := readRaw(br, method); err != nil || !strings.HasPrefix(raw, want) {
				t.Fatalf("%s: request %d = %q, %v", tr.name, i, raw, err)
			}
		}
		c.Close()
		for k, body := range bodies {
			if v, _, err := st.Get("alice", k); err != nil || !bytes.Equal(v, body) || cap(v) != len(v) {
				t.Errorf("%s: %s held as %d bytes of capacity %d, %v; want %d of capacity %d",
					tr.name, k, len(v), cap(v), err, len(body), len(body))
			}
		}
	}
}
