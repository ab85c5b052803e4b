package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"talus/internal/cluster"
)

// A Handler that is its http.Server's own Handler serves the keep-alive
// connections of cache clients itself. The first clean bodyless cache
// request on a connection hijacks it, and a goroutine of the
// connection's own takes it over, so that net/http's handler returns and
// its per-connection state goes. From then on wireConn parses each
// request from its own reader into a reused request and answers it
// through h.cache, the one implementation of the cache semantics, into a
// reused cluster.Reply, which it writes framed by Content-Length. A
// request it does not serve itself is handed back, with no byte
// consumed, to the same server. A wrapped handler never hijacks, so
// middleware sees every request.

// ownable reports whether a request net/http parsed may start an owned
// connection: HTTP/1.1 over plain TCP, no body, and none of the headers
// that change how net/http's server treats the connection.
func ownable(r *http.Request) bool {
	if r.ProtoMajor != 1 || r.ProtoMinor != 1 || r.TLS != nil || r.ContentLength != 0 {
		return false // a chunked body reads as ContentLength -1
	}
	for _, k := range connectionHeaders {
		if _, ok := r.Header[k]; ok {
			return false
		}
	}
	return true
}

// connectionHeaders are the request headers that make net/http's server
// do more than call the handler: close, send 100 Continue or 417, decode
// a transfer coding, switch protocols, read trailers. A request carrying
// one is always net/http's.
var connectionHeaders = [...]string{"Connection", "Expect", "Transfer-Encoding", "Upgrade", "Trailer"}

// own hijacks r's connection and serves it from a goroutine of its own
// until it ends, answering req, r as the cache path reads it, first;
// false leaves r to the caller. It declines when h is not the server's
// own Handler and when r is not ownable.
//
// net/http cancels r's context once ServeHTTP returns, which is at once,
// so every owned request carries r's context without its cancellation.
// Nothing else could cancel it: a hijack ends net/http's watch for the
// client hanging up.
func (h *Handler) own(w http.ResponseWriter, r *http.Request, req request) bool {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	if srv == nil || srv.Handler != http.Handler(h) || !ownable(r) {
		return false
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		return false
	}
	c := new(wireConn)
	c.state.Store(connActive)
	h.adopt(srv, c)
	nc, rw, err := hj.Hijack()
	if err != nil {
		h.release(c)
		return false
	}
	// The hijack's reader holds net/http's connection: keep only the
	// bytes it read ahead.
	buffered, _ := rw.Reader.Peek(rw.Reader.Buffered())
	c.init(replay(nc, buffered), r, req)
	go c.serve()
	return true
}

// Owned connection states. An idle connection waits for its next
// request; a server closing closes it at once. An active one is serving
// a request and ends after its reply.
const (
	connIdle int32 = iota
	connActive
	connClosed
)

// wireCounts is what the owned connections of a Handler did, as
// /v1/stats reports it: the connections it took over, the requests it
// answered on them, and the requests it handed back to net/http.
type wireCounts struct {
	Connections int64 `json:"connections"`
	Requests    int64 `json:"requests"`
	HandBacks   int64 `json:"handBacks"`
}

// owner is the set of connections a Handler serves itself under one
// http.Server. It is also a listener the server serves, which never
// yields a connection: srv's Close and Shutdown close every listener srv
// serves and wait for each Serve call to return, so closing it is how
// the Handler learns the server is closing, and Accept holding the Serve
// call until the owned connections end is how they wait for them.
type owner struct {
	h         *Handler
	srv       *http.Server
	closing   atomic.Bool
	conns     map[*wireConn]struct{} // guarded by Handler.ownMu
	closed    chan struct{}          // closed by Close
	closeOnce sync.Once
	empty     chan struct{} // closed when the last connection is released
}

// adopt adds c to the connections h owns under srv. The first one
// registers an owner that srv serves; a server already closing refuses
// it at once, and the owned connections close after their replies.
func (h *Handler) adopt(srv *http.Server, c *wireConn) {
	h.ownMu.Lock()
	defer h.ownMu.Unlock()
	o := h.owners[srv]
	if o == nil {
		o = &owner{h: h, srv: srv, conns: make(map[*wireConn]struct{}),
			closed: make(chan struct{}), empty: make(chan struct{})}
		if h.owners == nil {
			h.owners = make(map[*http.Server]*owner)
		}
		h.owners[srv] = o
		go func() {
			srv.Serve(o)
			h.closeOwned(o)
		}()
	}
	c.o = o
	o.conns[c] = struct{}{}
	h.conns.Add(1)
}

// release forgets c. The last connection
// out unregisters the owner and closes it, so no goroutine outlives the
// connections. An owner that has lost its last connection takes no new
// one: adopt registers another.
func (h *Handler) release(c *wireConn) {
	h.ownMu.Lock()
	defer h.ownMu.Unlock()
	o := c.o
	delete(o.conns, c)
	if len(o.conns) == 0 {
		if h.owners[o.srv] == o {
			delete(h.owners, o.srv)
		}
		close(o.empty)
		o.Close()
	}
}

// closeOwned runs once srv closes o, or refuses to serve it: it closes
// every idle connection; an active one closes after its reply.
func (h *Handler) closeOwned(o *owner) {
	h.ownMu.Lock()
	defer h.ownMu.Unlock()
	if h.owners[o.srv] == o {
		delete(h.owners, o.srv)
	}
	o.closing.Store(true)
	for c := range o.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			c.nc.Close()
		}
	}
}

// Accept waits for Close, then closes the idle connections and returns
// once every active one has written its reply and closed. The server's
// ReadTimeout and WriteTimeout bound that wait; Shutdown's context does
// not, as net/http cannot see these connections.
func (o *owner) Accept() (net.Conn, error) {
	<-o.closed
	o.h.closeOwned(o)
	<-o.empty
	return nil, net.ErrClosed
}

func (o *owner) Close() error {
	o.closeOnce.Do(func() { close(o.closed) })
	return nil
}

func (o *owner) Addr() net.Addr { return ownedAddr{} }

type ownedAddr struct{}

func (ownedAddr) Network() string { return "talus" }
func (ownedAddr) String() string  { return "owned connections" }

// wireConn is one connection the Handler serves itself.
type wireConn struct {
	o     *owner
	state atomic.Int32
	nc    net.Conn
	br    *bufio.Reader
	// Timeouts, from the server, as net/http applies them: idle between
	// requests, read from a request's head to the end of its body, write
	// from the head to the end of the reply.
	idleTimeout, readTimeout, writeTimeout time.Duration

	ctx        context.Context // every request's: the first's, without its cancellation
	remoteAddr string
	req        request       // every request parsed here, reused
	rep        cluster.Reply // every reply, reused
	body       wireBody
	buf        reqBytes // what c.req points into: its head, copied out of the reader
	out        []byte   // the reply's bytes
	date       []byte
	dateAt     int64 // the second date was formatted for
}

// connBufferSize sizes an owned connection's reader, as net/http sizes
// its own.
const connBufferSize = 4 << 10

// init readies c to serve nc, answering req, the cache request first,
// before anything read from nc.
func (c *wireConn) init(nc net.Conn, first *http.Request, req request) {
	c.nc, c.br = nc, bufio.NewReaderSize(nc, connBufferSize)
	srv := c.o.srv
	c.idleTimeout, c.readTimeout, c.writeTimeout = srv.IdleTimeout, srv.ReadTimeout, srv.WriteTimeout
	if c.idleTimeout == 0 {
		c.idleTimeout = c.readTimeout
	}
	c.ctx, c.remoteAddr = context.WithoutCancel(first.Context()), first.RemoteAddr
	c.req = req
	c.req.ctx = c.ctx
	c.body.br = c.br
}

// serve answers c.req, the request that hijacked the connection, then
// every request that follows on it, until it ends or hands a request
// back. A handler that panics ends the connection and is logged, as
// under net/http, whose recover no longer covers this goroutine.
func (c *wireConn) serve() {
	handedBack := false
	defer func() {
		if err := recover(); err != nil && err != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			logf := log.Printf
			if c.o.srv.ErrorLog != nil {
				logf = c.o.srv.ErrorLog.Printf
			}
			logf("http: panic serving %v: %v\n%s", c.remoteAddr, err, buf)
		}
		if !handedBack {
			c.nc.Close()
		}
		c.o.h.release(c)
	}()
	ok := c.respond()
	for ok && c.await() {
		if !c.parse() {
			handedBack = true
			c.o.h.handBacks.Add(1)
			c.handBack()
			return
		}
		ok = c.respond()
	}
}

// await waits, as net/http's server does, for the next request's first
// four bytes; false when the connection ended before them, timed out
// idle, or was closed by its server.
func (c *wireConn) await() bool {
	if c.br.Buffered() < 4 {
		if c.idleTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(c.idleTimeout))
		}
		if _, err := c.br.Peek(4); err != nil {
			return false
		}
	}
	return c.state.CompareAndSwap(connIdle, connActive)
}

// respond answers c.req through the cache path and reports whether the
// connection may carry another request.
func (c *wireConn) respond() bool {
	if c.writeTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	c.o.h.requests.Add(1)
	c.o.h.cache(&c.req, &c.rep)
	// A body not read to its end leaves the stream mid-request, and a
	// 413 is the handler refusing to read it: like net/http, hang up,
	// and say so unless the client itself ended the body early.
	keep := c.body.n == 0 && c.rep.Status != http.StatusRequestEntityTooLarge && !c.o.closing.Load()
	err := c.write(!keep && !c.body.eof)
	c.state.Store(connIdle)
	return err == nil && keep && !c.o.closing.Load()
}

var crlf2 = []byte("\r\n\r\n")

// parse reads the next request head from the buffered bytes into c.req.
// It returns false, with nothing consumed, for a request the connection
// does not serve itself: one that is not an HTTP/1.1 GET, HEAD, PUT or
// DELETE on a clean cache path, whose head is not all buffered, that
// needs net/http to do more than call the handler, or that net/http
// would refuse.
func (c *wireConn) parse() bool {
	buf, _ := c.br.Peek(c.br.Buffered())
	end := bytes.Index(buf, crlf2)
	if end < 0 {
		return false
	}
	// The values of c.req point into a copy of the head: reading a body
	// refills the reader, which moves its bytes.
	c.buf.head = append(c.buf.head[:0], buf[:end+2]...)
	line, rest, _ := bytes.Cut(c.buf.head, crlf2[:2])
	method, target, ok := requestLine(line)
	if !ok {
		return false
	}
	path, _, _ := bytes.Cut(target, []byte{'?'})
	tenant, key, ok := c.buf.cachePath(path)
	if !ok {
		return false
	}

	req := request{Request: cluster.Request{Method: method, Path: path}, tenant: tenant, key: key, ctx: c.ctx, body: &c.body}
	var seen [len(cluster.RequestHeaders) + 1]bool // the last: ForwardedHeader
	host, hosts, length := []byte(nil), 0, int64(-1)
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, crlf2[:2])
		name, value, ok := headerField(line)
		if !ok {
			return false
		}
		switch {
		case bytes.EqualFold(name, []byte("Host")):
			host, hosts = value, hosts+1
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, err := strconv.ParseUint(string(value), 10, 63)
			if length >= 0 || err != nil {
				return false
			}
			length = int64(n)
		default:
			for _, k := range connectionHeaders {
				if bytes.EqualFold(name, []byte(k)) {
					return false
				}
			}
			// Of each header, the first value counts, as with Header.Get.
			for i, k := range cluster.RequestHeaders {
				if !seen[i] && bytes.EqualFold(name, []byte(k)) {
					req.Header[i], seen[i] = value, true
				}
			}
			if f := len(seen) - 1; !seen[f] && bytes.EqualFold(name, []byte(cluster.ForwardedHeader)) {
				req.forwarded, seen[f] = len(value) > 0, true
			}
		}
	}
	if hosts != 1 || !validHost(host) {
		return false
	}
	if length < 0 {
		length = 0 // a request without Content-Length has no body
	} else if length > 0 && method != http.MethodPut {
		return false
	}

	c.br.Discard(end + len(crlf2))
	c.body.n, c.body.eof = length, false
	req.length = length
	c.req = req
	if length > 0 {
		switch {
		case c.readTimeout > 0:
			c.nc.SetReadDeadline(time.Now().Add(c.readTimeout))
		case c.idleTimeout > 0:
			c.nc.SetReadDeadline(time.Time{}) // the idle deadline must not cut the body
		}
	}
	return true
}

// requestLine splits "METHOD target HTTP/1.1" for the methods and
// targets parse serves: a cache path whose bytes net/http keeps as sent,
// percent escapes valid, and a query without a ';' (which net/http logs).
func requestLine(line []byte) (method string, target []byte, ok bool) {
	for _, m := range [...]string{http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete} {
		if len(line) > len(m) && string(line[:len(m)]) == m && line[len(m)] == ' ' {
			method, line = m, line[len(m)+1:]
			break
		}
	}
	target, proto, found := bytes.Cut(line, []byte{' '})
	if method == "" || !found || string(proto) != "HTTP/1.1" || !bytes.HasPrefix(target, []byte(cachePrefix)) {
		return "", nil, false
	}
	inQuery := false
	for i := 0; i < len(target); i++ {
		switch b := target[i]; {
		case b == '?':
			inQuery = true
		case b == '%' && !inQuery:
			if i+2 >= len(target) || !isHex(target[i+1]) || !isHex(target[i+2]) {
				return "", nil, false
			}
		case b == ';' && inQuery, !pathByte[b]:
			return "", nil, false
		}
	}
	return method, target, true
}

// headerField splits a header line into its name and value, checked as
// net/http checks them; ok is false for a line net/http would refuse or
// fold.
func headerField(line []byte) (name, value []byte, ok bool) {
	name, value, found := bytes.Cut(line, []byte{':'})
	if !found || len(name) == 0 {
		return nil, nil, false
	}
	for _, b := range name {
		if !tokenByte[b] {
			return nil, nil, false
		}
	}
	value = bytes.Trim(value, " \t")
	for _, b := range value {
		if (b < ' ' && b != '\t') || b == 0x7f {
			return nil, nil, false
		}
	}
	return name, value, true
}

// validHost accepts the Host values parse serves: a name or address
// with an optional port. Anything else goes to net/http, which decides.
func validHost(h []byte) bool {
	for _, b := range h {
		if !hostByte[b] {
			return false
		}
	}
	return len(h) > 0
}

func isHex(b byte) bool { return '0' <= b && b <= '9' || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F' }

// Byte classes: pathByte, the target bytes net/http keeps as sent in an
// escaped path (RFC 3986 pchar, '/', and the brackets url leaves alone);
// tokenByte, the bytes of a header name (RFC 9110 token); hostByte, the
// bytes of a Host value parse serves.
var (
	pathByte  = byteSet("-._~!$&'()*+,;=:@[]/%")
	tokenByte = byteSet("!#$%&'*+-.^_`|~")
	hostByte  = byteSet("-.:[]_")
)

// byteSet marks the ASCII letters and digits and the bytes of extra.
func byteSet(extra string) (set [256]bool) {
	for b := range set {
		c := byte(b)
		set[b] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte(extra, c) >= 0
	}
	return set
}

// handBack gives the connection, with every byte read but not consumed,
// to the server that hijacked it, to serve as a new connection; a server
// already closing refuses it and the connection closes.
func (c *wireConn) handBack() {
	buffered, _ := c.br.Peek(c.br.Buffered())
	c.nc.SetDeadline(time.Time{})
	l := &oneConn{conn: replay(c.nc, buffered)}
	c.o.srv.Serve(l)
	if l.conn != nil {
		c.nc.Close()
	}
}

// replay returns nc reading a copy of buffered first: bytes read off the
// wire by a reader that nc's next one replaces. A replayConn, a
// connection handed back before, is loaded again rather than wrapped,
// so that every read stays one layer deep; its unread bytes come after
// buffered.
func replay(nc net.Conn, buffered []byte) net.Conn {
	if len(buffered) == 0 {
		return nc
	}
	rc, ok := nc.(*replayConn)
	if !ok {
		rc = &replayConn{Conn: nc}
	}
	rc.buf = append(append([]byte(nil), buffered...), rc.buf...)
	return rc
}

// oneConn is a listener that yields one connection and then reports
// itself closed, which ends the Serve call after that connection starts.
type oneConn struct{ conn net.Conn }

func (l *oneConn) Accept() (net.Conn, error) {
	c := l.conn
	if c == nil {
		return nil, net.ErrClosed
	}
	l.conn = nil
	return c, nil
}

func (l *oneConn) Close() error   { return nil }
func (l *oneConn) Addr() net.Addr { return ownedAddr{} }

// replayConn reads buf before the connection: the bytes read off the
// wire before a hand-back.
type replayConn struct {
	net.Conn
	buf []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.buf) > 0 {
		n := copy(p, c.buf)
		if c.buf = c.buf[n:]; len(c.buf) == 0 {
			c.buf = nil
		}
		return n, nil
	}
	return c.Conn.Read(p)
}

// CloseWrite lets net/http half-close the connection, as it does after
// refusing an oversized head.
func (c *replayConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// wireBody is a request body of n more bytes on the connection; eof
// records that the client ended the connection before them.
type wireBody struct {
	br  *bufio.Reader
	n   int64
	eof bool
}

func (b *wireBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.br.Read(p)
	b.n -= int64(n)
	if err == io.EOF {
		b.eof, err = true, io.ErrUnexpectedEOF
	}
	return n, err
}

// A reply goes out in one write when its body is at most inlineBody
// bytes, the body copied after the head; a larger body is written on
// its own.
const inlineBody = 2 << 10

// bodyAllowed reports whether a reply with status may carry a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// write writes c.rep, framed by Content-Length, in the bytes net/http's
// server writes for the same reply: the status line; the reply's
// headers, Content-Length among them when the status allows a body, in
// the sorted order net/http writes a handler's in, with Connection:
// close first on a 413; Date; a sniffed Content-Type as net/http adds
// one; Connection: close when closing; and the body unless the request
// is HEAD or the status has none. The reply's values were cleaned where
// they came in. Then it resets c.rep.
func (c *wireConn) write(closing bool) error {
	rep := &c.rep
	out := c.out[:0]
	if text := http.StatusText(rep.Status); text != "" {
		out = strconv.AppendInt(append(out, "HTTP/1.1 "...), int64(rep.Status), 10)
		out = append(append(append(out, ' '), text...), "\r\n"...)
	} else {
		out = fmt.Appendf(out, "HTTP/1.1 %03d status code %d\r\n", rep.Status, rep.Status)
	}
	if rep.Status == http.StatusRequestEntityTooLarge {
		out = append(out, "Connection: close\r\n"...)
	}
	body, allowed := rep.Body, bodyAllowed(rep.Status)
	if allowed {
		out = strconv.AppendInt(append(out, "Content-Length: "...), int64(len(body)), 10)
		out = append(out, "\r\n"...)
	}
	out = appendField(out, "Content-Type", rep.ContentType)
	out = appendField(out, "Etag", rep.ETag)
	out = appendField(out, "X-Talus-Cache", rep.Cache)
	out = appendField(out, "X-Talus-Node", rep.Node)
	if now := time.Now(); now.Unix() != c.dateAt {
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
		c.dateAt = now.Unix()
	}
	out = appendField(out, "Date", c.date)
	if allowed && len(body) > 0 && rep.ContentType == "" {
		out = appendField(out, "Content-Type", http.DetectContentType(body))
	}
	if closing && rep.Status != http.StatusRequestEntityTooLarge {
		out = append(out, "Connection: close\r\n"...)
	}
	out = append(out, "\r\n"...)
	if !allowed || c.req.Method == http.MethodHead {
		body = nil
	}
	if len(body) <= inlineBody {
		out, body = append(out, body...), nil
	}
	_, err := c.nc.Write(out)
	if err == nil && len(body) > 0 {
		_, err = c.nc.Write(body)
	}
	c.out = out[:0]
	c.rep.Reset()
	return err
}

// appendField appends the header line "k: v" to out, or nothing when v
// is empty.
func appendField[V string | []byte](out []byte, k string, v V) []byte {
	if len(v) == 0 {
		return out
	}
	return append(append(append(append(out, k...), ": "...), v...), "\r\n"...)
}
