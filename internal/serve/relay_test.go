package serve_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
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

// keyOwnedBy returns the first "<prefix>-<i>" key of tenant alice that
// the ring assigns to node.
func (h *clusterHarness) keyOwnedBy(node int, prefix string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if h.ring.Route("alice", k) == h.nodes[node] {
			return k
		}
	}
}

// relayedResponseHeaders are the owner's response headers a hop must
// carry over verbatim.
var relayedResponseHeaders = []string{"X-Talus-Cache", "X-Talus-Node", "ETag", "Content-Type"}

// TestRelayConformance: a GET through the non-owner returns the owner's
// exact status, bytes and relayed headers at every value size, and both
// replies are framed by Content-Length at every size on either
// transport: the one framing the hop reads.
func TestRelayConformance(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			h := newClusterWrapped(t, 2, 4096, func(_ int, h http.Handler) http.Handler { return tr.handler(h) })
			for _, size := range []int{0, 1, 2047, 2048, 4096, 65536, 1 << 20} {
				key := h.keyOwnedBy(1, fmt.Sprintf("size%d", size))
				value := make([]byte, size)
				for i := range value {
					value[i] = byte(i*7 + size)
				}
				if resp, body := do(t, http.MethodPut, h.url(0, "alice", key), value); resp.StatusCode != http.StatusNoContent {
					t.Fatalf("%d B: PUT via non-owner = %d %s", size, resp.StatusCode, body)
				}
				relayed, relayedBody := do(t, http.MethodGet, h.url(0, "alice", key), nil)
				direct, directBody := do(t, http.MethodGet, h.url(1, "alice", key), nil)
				if relayed.StatusCode != http.StatusOK || direct.StatusCode != http.StatusOK {
					t.Fatalf("%d B: relayed GET %d, owner GET %d", size, relayed.StatusCode, direct.StatusCode)
				}
				if !bytes.Equal(relayedBody, value) || !bytes.Equal(directBody, value) {
					t.Fatalf("%d B: relayed %d B, owner %d B, not the stored bytes", size, len(relayedBody), len(directBody))
				}
				for _, k := range relayedResponseHeaders {
					if got, want := relayed.Header.Get(k), direct.Header.Get(k); got != want || want == "" {
						t.Fatalf("%d B: relayed %s = %q, owner's = %q", size, k, got, want)
					}
				}
				for _, resp := range []*http.Response{relayed, direct} {
					if resp.ContentLength != int64(size) || len(resp.TransferEncoding) > 0 {
						t.Fatalf("%d B: framed by Content-Length %d, Transfer-Encoding %q", size, resp.ContentLength, resp.TransferEncoding)
					}
				}
			}
		})
	}
}

// TestRelayRequestHeaders: revalidation, TTLs, misses and HEAD keep
// their meaning across the hop.
func TestRelayRequestHeaders(t *testing.T) {
	h := newCluster(t, 2, 4096)
	clock := newFakeClock()
	h.stores[1].SetNow(clock.Now)
	key := h.keyOwnedBy(1, "hdr")
	url := h.url(0, "alice", key)

	req, _ := http.NewRequest(http.MethodPut, url, httpBody("short-lived"))
	req.Header.Set("X-Talus-TTL", "5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusNoContent || tag == "" || resp.Header.Get("X-Talus-Node") != h.nodes[1] {
		t.Fatalf("PUT via non-owner = %d, ETag %q, node %q", resp.StatusCode, tag, resp.Header.Get("X-Talus-Node"))
	}

	req, _ = http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", tag)
	resp, body := doReq(t, req)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != tag {
		t.Fatalf("If-None-Match via non-owner = %d %q, ETag %q", resp.StatusCode, body, resp.Header.Get("ETag"))
	}

	// A HEAD states the length of the body a GET would carry.
	req, _ = http.NewRequest(http.MethodHead, url, nil)
	resp, body = doReq(t, req)
	if resp.StatusCode != http.StatusOK || len(body) != 0 || resp.Header.Get("ETag") != tag ||
		resp.Header.Get("X-Talus-Cache") != "hit" || resp.Header.Get("X-Talus-Node") != h.nodes[1] ||
		resp.Header.Get("Content-Length") != strconv.Itoa(len("short-lived")) {
		t.Fatalf("HEAD via non-owner = %d %q, headers %v", resp.StatusCode, body, resp.Header)
	}

	absent := h.keyOwnedBy(1, "absent")
	relayed, relayedBody := do(t, http.MethodGet, h.url(0, "alice", absent), nil)
	direct, directBody := do(t, http.MethodGet, h.url(1, "alice", absent), nil)
	if relayed.StatusCode != http.StatusNotFound || !bytes.Equal(relayedBody, directBody) ||
		relayed.Header.Get("X-Talus-Node") != h.nodes[1] {
		t.Fatalf("absent key via non-owner = %d %s, owner's = %d %s", relayed.StatusCode, relayedBody, direct.StatusCode, directBody)
	}

	// The TTL reached the owner: its clock passing the deadline expires
	// the value for readers on every node.
	clock.Advance(6 * time.Second)
	if resp, body := do(t, http.MethodGet, url, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET via non-owner after the relayed TTL = %d %s, want 404", resp.StatusCode, body)
	}
}

// doReq sends req and returns the response with its body drained.
func doReq(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestRelayAfterOwnerClosesIdle: a pooled connection the owner closed
// while it sat idle costs nothing visible — the next forward succeeds,
// and the owner's handler sees the request exactly once.
func TestRelayAfterOwnerClosesIdle(t *testing.T) {
	var reached atomic.Int64
	h := newClusterWrapped(t, 2, 4096, func(i int, next http.Handler) http.Handler {
		if i != 1 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			reached.Add(1)
			next.ServeHTTP(w, r)
		})
	})
	key := h.keyOwnedBy(1, "idle")
	if resp, _ := do(t, http.MethodPut, h.url(0, "alice", key), []byte("kept")); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}
	h.servers[1].CloseClientConnections()
	reached.Store(0)
	resp, body := do(t, http.MethodGet, h.url(0, "alice", key), nil)
	if resp.StatusCode != http.StatusOK || string(body) != "kept" {
		t.Fatalf("GET after the owner closed its idle connections = %d %q", resp.StatusCode, body)
	}
	if n := reached.Load(); n != 1 {
		t.Fatalf("owner's handler saw the GET %d times, want 1", n)
	}
}

// fakeOwner is a ring member that speaks raw TCP: it reads each request
// (headers and Content-Length body), counts it, and lets answer write
// whatever it likes for the i-th request it received, given its request
// line; the connection closes when answer returns false.
type fakeOwner struct {
	addr     string
	requests atomic.Int64
}

func startFakeOwner(t *testing.T, answer func(i int64, line string, c net.Conn) (keep bool)) *fakeOwner {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeOwner{addr: ln.Addr().String()}
	var conns sync.WaitGroup
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					length, first := 0, ""
					for {
						line, err := br.ReadString('\n')
						if err != nil {
							return
						}
						if line == "\r\n" {
							break
						}
						if first == "" {
							first = line
						}
						if name, val, ok := strings.Cut(line, ":"); ok && http.CanonicalHeaderKey(name) == "Content-Length" {
							length, _ = strconv.Atoi(strings.TrimSpace(val))
						}
					}
					if _, err := br.Discard(length); err != nil {
						return
					}
					if !answer(f.requests.Add(1)-1, first, c) {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		conns.Wait()
	})
	return f
}

// newEntry starts one real node in a two-member ring whose other member
// is peer (typically a fake owner), as nodes[0] of the harness.
func newEntry(t *testing.T, peer string) *clusterHarness {
	t.Helper()
	srv := httptest.NewUnstartedServer(nil)
	nodes := []string{srv.Listener.Addr().String(), peer}
	cl, err := cluster.New(cluster.Config{Self: nodes[0], Nodes: nodes, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := adaptive.Build("vantage", 4096, 16, 1, 2, 0.05, adaptive.Config{EpochAccesses: 1 << 14, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(ac, store.Config{NodeID: nodes[0]})
	if err != nil {
		t.Fatal(err)
	}
	srv.Config.Handler = serve.NewHandler(st, serve.Config{Cluster: cl})
	srv.Start()
	t.Cleanup(func() {
		closeServer(srv)
		st.Close()
	})
	return &clusterHarness{nodes: nodes, stores: []*store.Store{st}, servers: []*httptest.Server{srv}, ring: cl.Ring()}
}

// TestRelayHalfStatusLine: an owner that answers half a status line and
// hangs up has received the request, so the hop is a 502 and the
// request is not sent again.
func TestRelayHalfStatusLine(t *testing.T) {
	owner := startFakeOwner(t, func(_ int64, _ string, c net.Conn) bool {
		io.WriteString(c, "HTTP/1.1 20")
		return false
	})
	h := newEntry(t, owner.addr)
	resp, body := do(t, http.MethodGet, h.url(0, "alice", h.keyOwnedBy(1, "half")), nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("GET against a half-answering owner = %d %s, want 502", resp.StatusCode, body)
	}
	if n := owner.requests.Load(); n != 1 {
		t.Fatalf("owner received %d requests, want 1", n)
	}
}

// TestForwardTimeoutIsNotResent: a forward that times out after its
// request was written may already have been applied, so it is a 502 and
// never re-sent — a slow owner must not see one DELETE three times. The
// DELETE rides a pooled connection, the one kind a re-send may follow.
func TestForwardTimeoutIsNotResent(t *testing.T) {
	owner := startFakeOwner(t, func(i int64, _ string, c net.Conn) bool {
		if i == 0 {
			io.WriteString(c, "HTTP/1.1 204 No Content\r\n\r\n")
			return true
		}
		// Hold the request unanswered until the entry node hangs up.
		c.SetReadDeadline(time.Now().Add(4 * cluster.DefaultTimeout))
		io.Copy(io.Discard, c)
		return false
	})
	h := newEntry(t, owner.addr)
	url := h.url(0, "alice", h.keyOwnedBy(1, "slow"))
	if resp, body := do(t, http.MethodDelete, url, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("first DELETE = %d %s, want the owner's 204", resp.StatusCode, body)
	}
	resp, body := do(t, http.MethodDelete, url, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("DELETE against a silent owner = %d %s, want 502", resp.StatusCode, body)
	}
	if n := owner.requests.Load(); n != 2 {
		t.Fatalf("owner received %d DELETEs for 2 sent, want each once", n)
	}
}
