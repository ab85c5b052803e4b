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

// TestAllocationBudget bounds what one request allocates across the
// whole process — client, entry node and, when forwarded, the hop and
// the owner — on a live 2-node fleet whose handlers serve their
// connections themselves. Each budget is the count measured when it was
// set plus one malloc of slack: a local GET 2.00 (the ETag and its
// value slice), a forwarded GET 6.00, a local PUT of 128 B 5.00. The
// budgets hold under -race too.
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
	// The first request on the connection is a GET, which hands it to
	// the handler; the rows run in order on it.
	for _, tc := range []struct {
		name   string
		method string
		owner  int
		budget float64
	}{
		{"local GET", "GET", 0, 3},
		{"forwarded GET", "GET", 1, 7},
		{"local PUT", "PUT", 0, 6},
	} {
		key := h.keyOwnedBy(tc.owner, "budget")
		if resp, _ := do(t, "PUT", h.url(0, "alice", key), value); resp.StatusCode != 204 {
			t.Fatalf("%s: PUT = %d", tc.name, resp.StatusCode)
		}
		req := []byte(tc.method + " /v1/cache/alice/" + key + " HTTP/1.1\r\nHost: " + h.nodes[0] + "\r\n")
		wantStatus, wantBody := 200, value
		if tc.method == "PUT" {
			req = append(append(req, "Content-Length: "+strconv.Itoa(len(value))+"\r\n\r\n"...), value...)
			wantStatus, wantBody = 204, nil
		} else {
			req = append(req, "\r\n"...)
		}
		var ms0, ms1 runtime.MemStats
		for i := 0; i < warm+n; i++ {
			if i == warm {
				runtime.ReadMemStats(&ms0)
			}
			status, body, err := rc.roundTrip(req)
			if err != nil || status != wantStatus || !bytes.Equal(body, wantBody) {
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
