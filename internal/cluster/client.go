package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Client defaults.
const (
	// DefaultTimeout bounds one forwarding attempt end to end (dial,
	// write, the owner's handling, response read).
	DefaultTimeout = 2 * time.Second
	// DefaultRetries is how many times a request is re-sent after a
	// failure that proves it never reached the owner's handler (so up to
	// DefaultRetries+1 attempts).
	DefaultRetries = 2
	// DefaultMaxIdlePerHost sizes the keep-alive pool per peer node.
	// Proxy fan-out concentrates on few peers, so a deeper-than-stdlib
	// pool (2 by default) avoids re-dialing under concurrency.
	DefaultMaxIdlePerHost = 32
)

// connBufferSize sizes each pooled connection's reader and writer: the
// 4 KiB net/http's own transport gives each of its connections.
const connBufferSize = 4 << 10

// forwardedRequestHeaders are the cache-request headers the hop relays
// to the owner; forwardedResponseHeaders come back the other way. Both
// are in canonical form, so they index an http.Header directly. Kept to
// the protocol's own vocabulary: hop-by-hop headers and client
// connection metadata stay on their own hop.
var (
	forwardedRequestHeaders  = [...]string{"If-None-Match", "X-Talus-Ttl", "Content-Type"}
	forwardedResponseHeaders = [...]string{"X-Talus-Cache", "X-Talus-Node", "Etag", "Content-Type"}
)

// relayValues are the response header values a talus-serve owner sends
// on almost every response, preallocated so relaying one reuses its
// slice instead of allocating one. len == cap: an append copies.
var relayValues = map[string][]string{
	"hit":                      {"hit"},
	"miss":                     {"miss"},
	"application/octet-stream": {"application/octet-stream"},
	"application/json":         {"application/json"},
}

// peer is one member's pool of idle keep-alive connections.
type peer struct {
	addr string
	node []string   // addr as a relayed X-Talus-Node value
	idle chan *conn // the idle pool: its capacity, DefaultMaxIdlePerHost, bounds it
}

func newPeer(addr string) *peer {
	return &peer{addr: addr, node: []string{addr}, idle: make(chan *conn, DefaultMaxIdlePerHost)}
}

// conn is one HTTP/1.1 connection to a peer, used by one request at a
// time: the goroutine that took it from the pool or dialled it.
type conn struct {
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	abort func() // ends the attempt in progress: the caller's context ended
}

func (p *peer) dial(ctx context.Context) (*conn, error) {
	d := net.Dialer{Timeout: DefaultTimeout}
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	c := &conn{nc: nc, br: bufio.NewReaderSize(nc, connBufferSize), bw: bufio.NewWriterSize(nc, connBufferSize)}
	c.abort = func() { nc.SetDeadline(time.Unix(1, 0)) }
	return c, nil
}

// get takes an idle connection, or returns nil when none is pooled.
func (p *peer) get() *conn {
	select {
	case c := <-p.idle:
		return c
	default:
		return nil
	}
}

// put pools c, or closes it when the pool is full.
func (p *peer) put(c *conn) {
	select {
	case p.idle <- c:
	default:
		c.nc.Close()
	}
}

// value returns v as a header value, reusing a preallocated slice for
// the peer's own name and the common values.
func (p *peer) value(v []byte) []string {
	if string(v) == p.addr {
		return p.node
	}
	if vs, ok := relayValues[string(v)]; ok {
		return vs
	}
	return []string{string(v)}
}

// relay sends one request to p and writes the owner's response to w.
//
// The request is re-sent only when it provably never reached a handler:
// the dial failed, or a pooled connection — which the owner may have
// closed while it sat idle — ended (EOF or reset) before the first
// response byte. A re-send always dials. Any other failure, above all a
// timeout after the request was written, is returned and never re-sent:
// the owner may have applied the request, and a write must not be
// applied twice.
func (p *peer) relay(ctx context.Context, w http.ResponseWriter, from, method, path string, body []byte, hdr http.Header) error {
	var err error
	attempts := 0
	for attempts <= DefaultRetries {
		attempts++
		var c *conn
		if attempts == 1 {
			c = p.get()
		}
		pooled := c != nil
		if !pooled {
			if c, err = p.dial(ctx); err != nil {
				if ctx.Err() != nil {
					break
				}
				continue
			}
		}
		var unsent, reuse bool
		unsent, reuse, err = p.roundTrip(ctx, c, w, from, method, path, body, hdr)
		if reuse {
			p.put(c)
		} else {
			c.nc.Close()
		}
		if err == nil {
			return nil
		}
		if !pooled || !unsent || ctx.Err() != nil {
			break
		}
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		err = ctxErr
	}
	return fmt.Errorf("cluster: forward to %s failed after %d attempt(s): %w", p.addr, attempts, err)
}

// roundTrip writes one request on c and relays its response to w.
// Nothing reaches w until the whole response is in hand, so a failure
// anywhere leaves w to the caller's 502. unsent reports that the peer
// ended the connection before the first response byte; reuse, that the
// response was consumed whole and c may carry another request.
func (p *peer) roundTrip(ctx context.Context, c *conn, w http.ResponseWriter, from, method, path string, body []byte, hdr http.Header) (unsent, reuse bool, err error) {
	c.nc.SetDeadline(time.Now().Add(DefaultTimeout))
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, c.abort)
		defer func() {
			if !stop() {
				reuse = false // abort moved the deadline into the past
			}
		}()
	}

	bw := c.bw
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(path)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(p.addr)
	bw.WriteString("\r\n" + ForwardedHeader + ": ")
	bw.WriteString(from)
	bw.WriteString("\r\n")
	for _, k := range forwardedRequestHeaders {
		if vs := hdr[k]; len(vs) > 0 && vs[0] != "" {
			bw.WriteString(k)
			bw.WriteString(": ")
			bw.WriteString(vs[0])
			bw.WriteString("\r\n")
		}
	}
	if len(body) > 0 || method == http.MethodPut {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(body)), 10))
		bw.WriteString("\r\n")
	}
	bw.WriteString("\r\n")
	bw.Write(body)
	if err = bw.Flush(); err != nil {
		return endedEarly(err), false, err
	}
	if _, err = c.br.Peek(1); err != nil {
		return endedEarly(err), false, err
	}
	reuse, err = p.readResponse(c.br, w, method == http.MethodHead)
	return false, reuse, err
}

// readResponse parses one response from br and, once its body is in
// hand, writes status, relayed headers and body to w. A body that fits
// the read buffer is relayed from it without a copy; a larger one is
// read once, a chunked one decoded. keep reports that the response ended
// cleanly on a connection the owner keeps open.
func (p *peer) readResponse(br *bufio.Reader, w http.ResponseWriter, head bool) (keep bool, err error) {
	// "HTTP/1.1 200 OK\r\n"
	line, err := br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if len(line) < 13 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' || strings.IndexByte(" \r\n", line[12]) < 0 {
		return false, fmt.Errorf("malformed status line %q", line)
	}
	status, ok := atoi(line[9:12])
	if !ok || status < 200 {
		return false, fmt.Errorf("malformed status line %q", line)
	}
	closing := line[7] == '0' // HTTP/1.0 closes unless told otherwise
	length, chunked := -1, false
	var vals [len(forwardedResponseHeaders)][]string
	for {
		if line, err = br.ReadSlice('\n'); err != nil {
			return false, err
		}
		line = trimEOL(line)
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return false, fmt.Errorf("malformed header line %q", line)
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, ok = atoi(val); !ok {
				return false, fmt.Errorf("malformed Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			if !bytes.EqualFold(val, []byte("chunked")) {
				return false, fmt.Errorf("unsupported Transfer-Encoding %q", val)
			}
			chunked = true
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(val, []byte("close"))
		default:
			for i, k := range forwardedResponseHeaders {
				if vals[i] == nil && bytes.EqualFold(name, []byte(k)) {
					vals[i] = p.value(val)
				}
			}
		}
	}

	var body []byte
	buffered := 0 // body bytes still sitting in br
	switch {
	case head || status == http.StatusNoContent || status == http.StatusNotModified:
	case chunked:
		if body, err = io.ReadAll(httputil.NewChunkedReader(br)); err != nil {
			return false, err
		}
		for { // the trailer, up to its blank line
			if line, err = br.ReadSlice('\n'); err != nil {
				return false, err
			}
			if len(trimEOL(line)) == 0 {
				break
			}
		}
	case length < 0: // delimited by the owner closing the connection
		if body, err = io.ReadAll(br); err != nil {
			return false, err
		}
		closing = true
	case length <= br.Size():
		if body, err = br.Peek(length); err != nil {
			return false, err
		}
		buffered = length
	default:
		body = make([]byte, length)
		if _, err = io.ReadFull(br, body); err != nil {
			return false, err
		}
	}

	h := w.Header()
	for i, k := range forwardedResponseHeaders {
		if vals[i] != nil {
			h[k] = vals[i]
		}
	}
	w.WriteHeader(status)
	if len(body) > 0 {
		w.Write(body)
	}
	br.Discard(buffered)
	return !closing, nil
}

// endedEarly reports whether err is the peer ending the connection — an
// orderly close or a reset — rather than a timeout or a local failure.
func endedEarly(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// trimEOL drops a line's trailing CRLF or LF.
func trimEOL(line []byte) []byte {
	line = bytes.TrimSuffix(line, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r"))
}

// atoi parses a non-negative decimal of at most 18 digits without
// allocating.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
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
