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
	"net/textproto"
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

// relayedHeaders name the response headers that come back into a Reply,
// in canonical form.
var relayedHeaders = [...]string{"Content-Type", "Etag", "X-Talus-Cache", "X-Talus-Node"}

// maxPrealloc bounds the storage ReadFull gives a body ahead of its
// bytes: a declared length alone must not size an allocation.
const maxPrealloc = 64 << 10

// ReadFull reads n bytes from r into buf's storage, which it grows as
// the bytes arrive: never ahead of them by more than 64 KiB or the bytes
// already read, whichever is more. A body of up to 64 KiB is read into
// one buffer of its size. On error it returns the bytes read.
func ReadFull(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for have := 0; have < n; have = len(buf) {
		want := min(n, have+max(have, maxPrealloc))
		if cap(buf) < want {
			buf = append(make([]byte, 0, want), buf...)
		}
		m, err := io.ReadFull(r, buf[have:want])
		if buf = buf[:have+m]; err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// peer is one member's pool of idle keep-alive connections.
type peer struct {
	addr string
	idle chan *conn // the idle pool: its capacity, DefaultMaxIdlePerHost, bounds it
}

func newPeer(addr string) *peer {
	return &peer{addr: addr, idle: make(chan *conn, DefaultMaxIdlePerHost)}
}

// conn is one HTTP/1.1 connection to a peer, used by one request at a
// time: the goroutine that took it from the pool or dialled it.
type conn struct {
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	etag  []byte // the ETag of the response being read, reused
	abort func() // ends the attempt in progress: the caller's context ended
}

// dial opens a connection to the peer at addr: TCP, within
// DefaultTimeout. The fuzz tests swap it for in-memory connections.
var dial = func(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: DefaultTimeout}
	return d.DialContext(ctx, "tcp", addr)
}

func (p *peer) dial(ctx context.Context) (*conn, error) {
	nc, err := dial(ctx, p.addr)
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

// relay sends req to p and fills rep from the owner's response.
//
// The request is re-sent only when it provably never reached a handler:
// the dial failed, or a pooled connection — which the owner may have
// closed while it sat idle — ended (EOF or reset) before the first
// response byte. A re-send always dials. Any other failure, above all a
// timeout after the request was written, is returned and never re-sent:
// the owner may have applied the request, and a write must not be
// applied twice.
func (p *peer) relay(ctx context.Context, from string, req *Request, rep *Reply) error {
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
		unsent, reuse, err = p.roundTrip(ctx, c, from, req, rep)
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

// roundTrip writes req on c and fills rep from its response. Nothing
// reaches rep until the whole response is in hand, so a failure anywhere
// leaves rep to the caller's 502. unsent reports that the peer
// ended the connection before the first response byte; reuse, that the
// response was consumed whole and c may carry another request.
func (p *peer) roundTrip(ctx context.Context, c *conn, from string, req *Request, rep *Reply) (unsent, reuse bool, err error) {
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
	if req.Method == http.MethodHead {
		bw.WriteString(http.MethodGet)
	} else {
		bw.WriteString(req.Method)
	}
	bw.WriteByte(' ')
	bw.Write(req.Path)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(p.addr)
	bw.WriteString("\r\n" + ForwardedHeader + ": ")
	bw.WriteString(from)
	bw.WriteString("\r\n")
	for i, v := range req.Header {
		if len(v) > 0 {
			bw.WriteString(RequestHeaders[i])
			bw.WriteString(": ")
			bw.Write(v)
			bw.WriteString("\r\n")
		}
	}
	if len(req.Body) > 0 || req.Method == http.MethodPut {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(req.Body)), 10))
		bw.WriteString("\r\n")
	}
	bw.WriteString("\r\n")
	bw.Write(req.Body)
	if err = bw.Flush(); err != nil {
		return endedEarly(err), false, err
	}
	if _, err = c.br.Peek(1); err != nil {
		return endedEarly(err), false, err
	}
	reuse, err = p.readResponse(c, rep)
	return false, reuse, err
}

// readResponse parses one response from c and, once its body is in
// hand, fills rep with status, relayed headers and body. A response is
// HTTP/1.1, its body framed by Content-Length, or absent on a 204 or
// 304: the framing a talus-serve owner writes on either transport. Any
// other is malformed. The body is read once, into rep's own storage.
// keep reports that the response ended cleanly on a connection the
// owner keeps open.
func (p *peer) readResponse(c *conn, rep *Reply) (keep bool, err error) {
	br := c.br
	// "HTTP/1.1 200 OK\r\n"
	line, err := br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if len(line) < 13 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) || strings.IndexByte(" \r\n", line[12]) < 0 {
		return false, fmt.Errorf("malformed status line %q", line)
	}
	status, ok := atoi(line[9:12])
	if !ok || status < 200 {
		return false, fmt.Errorf("malformed status line %q", line)
	}
	length, closing := -1, false
	c.etag = c.etag[:0]
	var vals [len(relayedHeaders)]string // the ETag's goes to c.etag
	var seen [len(relayedHeaders)]bool
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
			return false, fmt.Errorf("unsupported Transfer-Encoding %q", val)
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(val, []byte("close"))
		default:
			// The first occurrence wins, as with Header.Get. The line's
			// bytes go at the next read, so each value is kept now.
			for i, k := range relayedHeaders {
				if !seen[i] && bytes.EqualFold(name, []byte(k)) {
					seen[i] = true
					if val = Clean(val); k == "Etag" {
						c.etag = append(c.etag[:0], val...)
					} else {
						vals[i] = p.text(val)
					}
				}
			}
		}
	}

	own := rep.own[:0]
	if status != http.StatusNoContent && status != http.StatusNotModified {
		if length < 0 {
			return false, errors.New("response body without Content-Length")
		}
		if own, err = ReadFull(br, own, length); err != nil {
			return false, err
		}
	}

	rep.Status, rep.ContentType, rep.Cache, rep.Node = status, vals[0], vals[2], vals[3]
	rep.ETag = append(rep.ETag[:0], c.etag...)
	rep.own, rep.Body = own, own
	return !closing, nil
}

// Clean makes v a header value as net/http writes one, in place: CR and
// LF made spaces, then its ends trimmed.
func Clean(v []byte) []byte {
	for i, b := range v {
		if b == '\r' || b == '\n' {
			v[i] = ' '
		}
	}
	return textproto.TrimBytes(v)
}

// text returns v as a string, without a new one for the values a
// talus-serve owner sends: its own name, the cache outcomes and the two
// content types.
func (p *peer) text(v []byte) string {
	for _, s := range [...]string{p.addr, "hit", "miss", "application/octet-stream", "application/json"} {
		if string(v) == s {
			return s
		}
	}
	return string(v)
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
