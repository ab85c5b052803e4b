package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// httpConn is a lean keep-alive HTTP/1.1 client connection: it writes
// pre-rendered request bytes and parses only what the workloads check —
// status, Content-Length, X-Talus-Cache, X-Talus-Node and the body. The
// harness shares two cores with the servers under test, so every
// microsecond net/http's client would spend is a microsecond the
// benchmark would bill to the program.
type httpConn struct {
	c  net.Conn
	br *bufio.Reader
}

// httpReply is one parsed response. body and node are reused by the
// next roundTrip on the same reply.
type httpReply struct {
	status int
	hit    bool   // X-Talus-Cache: hit
	node   []byte // X-Talus-Node
	body   []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 4096)}, nil
}

func (h *httpConn) close() { h.c.Close() }

// atoi parses a non-negative decimal without allocating.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

var errUnframed = errors.New("response without Content-Length (chunked or close-delimited): not supported by the bench client")

// roundTrip writes one request and reads its response into r.
func (h *httpConn) roundTrip(req []byte, r *httpReply) error {
	if _, err := h.c.Write(req); err != nil {
		return err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return fmt.Errorf("bad status line %q", line)
	}
	var ok bool
	if r.status, ok = atoi(line[9:12]); !ok {
		return fmt.Errorf("bad status line %q", line)
	}
	r.hit, r.node = false, r.node[:0]
	length := -1
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return fmt.Errorf("bad header line %q", line)
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, ok = atoi(val); !ok {
				return fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("X-Talus-Cache")):
			r.hit = bytes.Equal(val, []byte("hit"))
		case bytes.EqualFold(name, []byte("X-Talus-Node")):
			r.node = append(r.node, val...)
		}
	}
	r.body = r.body[:0]
	if r.status == 204 || r.status == 304 {
		return nil
	}
	if length < 0 {
		return errUnframed
	}
	if cap(r.body) < length {
		r.body = make([]byte, length)
	}
	r.body = r.body[:length]
	_, err = io.ReadFull(h.br, r.body)
	return err
}

// renderRequest renders one request for (tenant, key). body is nil for
// GET and DELETE.
func renderRequest(kind int, tenant, key string, body []byte) []byte {
	var b bytes.Buffer
	switch kind {
	case opGet:
		b.WriteString("GET")
	case opDelete:
		b.WriteString("DELETE")
	default:
		b.WriteString("PUT")
	}
	fmt.Fprintf(&b, " /v1/cache/%s/%s HTTP/1.1\r\nHost: bench\r\n", tenant, key)
	if kind == opSetTTL {
		fmt.Fprintf(&b, "X-Talus-TTL: %d\r\n", ttlSeconds)
	}
	if kind == opSet || kind == opSetTTL {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// renderStream pre-renders one client's requests. GETs and DELETEs of
// one key share their bytes; each PUT carries the version the model
// says it writes, so m must be in the state the stream starts from (it
// is advanced past the stream).
func renderStream(in *inputs, m *model, ops []op) [][]byte {
	shared := make(map[op][]byte)
	reqs := make([][]byte, len(ops))
	for i, o := range ops {
		key := o.key()
		switch o.kind() {
		case opSet, opSetTTL:
			body := make([]byte, in.sizes[key])
			v := m.nextVersion(key)
			fillValue(body, key, v)
			m.set(key, v)
			reqs[i] = renderRequest(o.kind(), in.tenant(key), in.keys[key], body)
		default:
			if o.kind() == opDelete {
				m.delete(key)
			}
			r, ok := shared[o]
			if !ok {
				r = renderRequest(o.kind(), in.tenant(key), in.keys[key], nil)
				shared[o] = r
			}
			reqs[i] = r
		}
	}
	return reqs
}

// serveCanned answers every request on ln with one fixed 200 response:
// the stub the client's own cost is measured against. It returns when
// ln is closed and every connection has ended.
func serveCanned(ln net.Listener, bodyLen int) {
	resp := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nX-Talus-Cache: hit\r\nX-Talus-Node: stub\r\n\r\n%s",
		bodyLen, bytes.Repeat([]byte{'x'}, bodyLen)))
	var conns sync.WaitGroup
	defer conns.Wait()
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
				length := 0
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						return
					}
					if len(line) <= 2 {
						break
					}
					if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
						length, _ = atoi(bytes.TrimSpace(v))
					}
				}
				if _, err := br.Discard(length); err != nil {
					return
				}
				if _, err := c.Write(resp); err != nil {
					return
				}
			}
		}()
	}
}
