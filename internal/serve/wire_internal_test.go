package serve

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/url"
	"path"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"talus/internal/adaptive"
	"talus/internal/store"
)

// TestHandBackStaysOneLayer: a connection that alternates a cache GET,
// which the handler takes over, with a stats GET, which it hands back,
// is read through one replayConn however often it changes hands — never
// a replayConn wrapping another — and that replayConn keeps no bytes
// once the server has read them.
func TestHandBackStaysOneLayer(t *testing.T) {
	ac, err := adaptive.Build("vantage", 8192, 16, 2, 2, 0.05, adaptive.Config{EpochAccesses: 1 << 14, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(ac, store.Config{Tenants: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Set("a", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var problems []string
	replays := make(map[*replayConn]bool)
	srv := &http.Server{Handler: NewHandler(st, Config{})}
	srv.ConnState = func(nc net.Conn, s http.ConnState) {
		rc, ok := nc.(*replayConn)
		if !ok {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		replays[rc] = true
		if _, nested := rc.Conn.(*replayConn); nested {
			problems = append(problems, "a replayConn wraps a replayConn")
		}
		if s == http.StateHijacked && rc.buf != nil {
			problems = append(problems, strconv.Itoa(len(rc.buf))+" replayed bytes kept after the server read them")
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(c)
	const pairs = 2000
	for i := 0; i < pairs; i++ {
		for _, path := range []string{"/v1/cache/a/k", "/v1/stats"} {
			if _, err := io.WriteString(c, "GET "+path+" HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("pair %d, GET %s: %v", i, path, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pair %d, GET %s: %d", i, path, resp.StatusCode)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(problems) > 0 {
		t.Fatalf("%d times: %s", len(problems), strings.Join(problems[:min(len(problems), 3)], "; "))
	}
	if len(replays) != 1 {
		t.Fatalf("%d replayConns over %d hand-backs of one connection, want 1", len(replays), pairs)
	}
}

// TestPathBytesMatchStrings: isClean and unescape, which work on a
// request's bytes, agree with the mux's rules as the standard library
// states them on strings, over every string of up to seven bytes from
// an alphabet that makes each case: path.Clean leaving a cache path
// unchanged but for a trailing slash, and url.PathUnescape, whose
// segment is kept as it is when it does not unescape.
func TestPathBytesMatchStrings(t *testing.T) {
	var b reqBytes
	var each func(prefix string, alphabet string, n int, f func(string))
	each = func(prefix, alphabet string, n int, f func(string)) {
		f(prefix)
		if n == 0 {
			return
		}
		for i := range alphabet {
			each(prefix+alphabet[i:i+1], alphabet, n-1, f)
		}
	}
	each(cachePrefix, "a./", 7, func(p string) {
		np := path.Clean(p)
		want := np == p || (len(p) == len(np)+1 && p[len(p)-1] == '/' && strings.HasPrefix(p, np))
		if got := isClean([]byte(p)); got != want {
			t.Errorf("isClean(%q) = %v, want %v", p, got, want)
		}
	})
	each("", "a%2Fg", 6, func(seg string) {
		want, err := url.PathUnescape(seg)
		if err != nil {
			want = seg
		}
		b.unescaped = b.unescaped[:0]
		if got := b.unescape([]byte(seg)); string(got) != want {
			t.Errorf("unescape(%q) = %q, want %q", seg, got, want)
		}
	})
}
