package serve_test

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"strconv"
	"testing"
)

// rawConn is a keep-alive HTTP/1.1 client that allocates nothing per
// request, so a process-wide malloc count charges the servers alone.
type rawConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

// roundTrip writes req and reads one Content-Length-framed response,
// returning its status and body (valid until the next call).
func (rc *rawConn) roundTrip(req []byte) (int, []byte, error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length := 0
	for {
		if line, err = rc.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			for _, d := range v {
				length = length*10 + int(d-'0')
			}
		}
	}
	if cap(rc.body) < length {
		rc.body = make([]byte, length)
	}
	rc.body = rc.body[:length]
	_, err = io.ReadFull(rc.br, rc.body)
	return status, rc.body, err
}

// TestAllocationBudget bounds what one GET allocates across the whole
// process — client, entry node and, when forwarded, the hop and the
// owner — on a live 2-node fleet: a local GET at most 24 mallocs, a
// forwarded one at most 56. The budgets hold under -race too.
func TestAllocationBudget(t *testing.T) {
	const warm, n = 1000, 10_000
	h := newCluster(t, 2, 4096)
	value := bytes.Repeat([]byte("v"), 128)
	c, err := net.Dial("tcp", h.nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc := &rawConn{c: c, br: bufio.NewReaderSize(c, 4096)}
	for _, tc := range []struct {
		name   string
		owner  int
		budget float64
	}{
		{"local GET", 0, 24},
		{"forwarded GET", 1, 56},
	} {
		key := h.keyOwnedBy(tc.owner, "budget")
		if resp, _ := do(t, "PUT", h.url(0, "alice", key), value); resp.StatusCode != 204 {
			t.Fatalf("%s: PUT = %d", tc.name, resp.StatusCode)
		}
		req := []byte("GET /v1/cache/alice/" + key + " HTTP/1.1\r\nHost: " + h.nodes[0] + "\r\n\r\n")
		var ms0, ms1 runtime.MemStats
		for i := 0; i < warm+n; i++ {
			if i == warm {
				runtime.ReadMemStats(&ms0)
			}
			status, body, err := rc.roundTrip(req)
			if err != nil || status != 200 || !bytes.Equal(body, value) {
				t.Fatalf("%s %d: status %d, %d B, %v", tc.name, i, status, len(body), err)
			}
		}
		runtime.ReadMemStats(&ms1)
		per := float64(ms1.Mallocs-ms0.Mallocs) / n
		t.Logf("%s: %s mallocs/op over %d requests", tc.name, strconv.FormatFloat(per, 'f', 2, 64), n)
		if per > tc.budget {
			t.Errorf("%s: %.2f mallocs/op, budget %.0f", tc.name, per, tc.budget)
		}
	}
}
