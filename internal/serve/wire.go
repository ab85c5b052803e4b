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
	"net/textproto"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Handler that is its http.Server's own Handler serves the keep-alive
// connections of cache clients itself. The first clean bodyless cache
// request on a connection hijacks it, and a goroutine of the
// connection's own takes it over, so that net/http's handler returns and
// its per-connection state goes. From then on wireConn parses each
// request from its own reader and answers it through h.cache, the one
// implementation of the cache semantics, with a reused *http.Request and
// a Content-Length-framing http.ResponseWriter. A request it does not
// serve itself is handed back, with no byte consumed, to the same server.
// A wrapped handler never hijacks, so middleware sees every request.

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
// until it ends, answering r first; false leaves r to the caller. It
// declines when h is not the server's own Handler and when r is not
// ownable.
//
// net/http cancels r's context once ServeHTTP returns, which is at once,
// so every owned request carries r's context without its cancellation.
// Nothing else could cancel it: a hijack ends net/http's watch for the
// client hanging up.
func (h *Handler) own(w http.ResponseWriter, r *http.Request, tenant, key string) bool {
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
	first := r.WithContext(context.WithoutCancel(r.Context()))
	c.init(replay(nc, buffered), first)
	go c.serve(first, tenant, key)
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

// wireCounts is what the owned connections of a Handler did: the
// connections it took over, the requests it answered on them, and the
// requests it handed back to net/http. /v1/stats reports them.
type wireCounts struct {
	Connections int64 `json:"connections"`
	Requests    int64 `json:"requests"`
	HandBacks   int64 `json:"handBacks"`
}

// ownedCounts sums the counts of the connections h has released with
// those of the ones it serves now.
func (h *Handler) ownedCounts() wireCounts {
	h.ownMu.Lock()
	defer h.ownMu.Unlock()
	n := h.wire
	for _, o := range h.owners {
		for c := range o.conns {
			n.Requests += c.requests.Load()
		}
	}
	return n
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
	h.wire.Connections++
}

// release forgets c, keeping its count of requests. The last connection
// out unregisters the owner and closes it, so no goroutine outlives the
// connections. An owner that has lost its last connection takes no new
// one: adopt registers another.
func (h *Handler) release(c *wireConn) {
	h.ownMu.Lock()
	defer h.ownMu.Unlock()
	h.wire.Requests += c.requests.Load()
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

// countHandBack counts a request handed back to net/http.
func (h *Handler) countHandBack() {
	h.ownMu.Lock()
	h.wire.HandBacks++
	h.ownMu.Unlock()
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
	o        *owner
	state    atomic.Int32
	requests atomic.Int64 // answered here; only the connection's goroutine adds
	nc       net.Conn
	br       *bufio.Reader
	// Timeouts, from the server, as net/http applies them: idle between
	// requests, read from a request's head to the end of its body, write
	// from the head to the end of the reply.
	idleTimeout, readTimeout, writeTimeout time.Duration

	req    *http.Request // every request parsed here, reused
	body   wireBody
	w      wireWriter
	target string       // the previous request target, reused when repeated
	lines  []headerLine // the previous head's header lines, reused when repeated
}

// headerLine is one header line as sent, with its canonical key and
// value slice, so that a line repeated at the same place in the next
// request costs no allocation.
type headerLine struct {
	raw  []byte
	key  string
	vals []string
}

// connBufferSize sizes an owned connection's reader, as net/http sizes
// its own.
const connBufferSize = 4 << 10

func (c *wireConn) init(nc net.Conn, first *http.Request) {
	c.nc, c.br = nc, bufio.NewReaderSize(nc, connBufferSize)
	srv := c.o.srv
	c.idleTimeout, c.readTimeout, c.writeTimeout = srv.IdleTimeout, srv.ReadTimeout, srv.WriteTimeout
	if c.idleTimeout == 0 {
		c.idleTimeout = c.readTimeout
	}
	c.req = (&http.Request{
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		URL: new(url.URL), Header: make(http.Header), RemoteAddr: first.RemoteAddr,
	}).WithContext(first.Context())
	c.body.br = c.br
	c.w.nc = nc
	c.w.hdr = make(http.Header)
}

// serve answers first, then every request that follows on the
// connection, until it ends or hands a request back. A handler that
// panics ends the connection and is logged, as under net/http, whose
// recover no longer covers this goroutine.
func (c *wireConn) serve(first *http.Request, tenant, key string) {
	handedBack := false
	defer func() {
		if err := recover(); err != nil && err != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			logf := log.Printf
			if c.o.srv.ErrorLog != nil {
				logf = c.o.srv.ErrorLog.Printf
			}
			logf("http: panic serving %v: %v\n%s", c.req.RemoteAddr, err, buf)
		}
		if !handedBack {
			c.nc.Close()
		}
		c.o.h.release(c)
	}()
	ok := c.respond(first, tenant, key)
	for ok && c.await() {
		if tenant, key, ok = c.parse(); !ok {
			handedBack = true
			c.o.h.countHandBack()
			c.handBack()
			return
		}
		ok = c.respond(c.req, tenant, key)
	}
}

// await waits for the next request's first byte; false when the
// connection ended, timed out idle, or was closed by its server.
func (c *wireConn) await() bool {
	if c.br.Buffered() == 0 {
		if c.idleTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(c.idleTimeout))
		}
		if _, err := c.br.Peek(1); err != nil {
			return false
		}
	}
	return c.state.CompareAndSwap(connIdle, connActive)
}

// respond answers r through the cache path and reports whether the
// connection may carry another request.
func (c *wireConn) respond(r *http.Request, tenant, key string) bool {
	if c.writeTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	c.w.req = r
	c.requests.Add(1)
	c.o.h.cache(&c.w, r, tenant, key)
	// A body not read to its end leaves the stream mid-request, and a
	// 413 is the handler refusing to read it: like net/http, hang up,
	// and say so unless the client itself ended the body early.
	keep := c.body.n == 0 && c.w.status != http.StatusRequestEntityTooLarge && !c.o.closing.Load()
	err := c.w.finish(!keep && !c.body.eof)
	c.state.Store(connIdle)
	return err == nil && keep && !c.o.closing.Load()
}

var crlf2 = []byte("\r\n\r\n")

// parse reads the next request head from the buffered bytes into c.req
// and returns its tenant and key. ok is false, with nothing consumed,
// for a request the connection does not serve itself: one that is not
// an HTTP/1.1 GET, HEAD, PUT or DELETE on a clean cache path, whose head
// is not all buffered, that needs net/http to do more than call the
// handler, or that net/http would refuse.
func (c *wireConn) parse() (tenant, key string, ok bool) {
	buf, _ := c.br.Peek(c.br.Buffered())
	end := bytes.Index(buf, crlf2)
	if end < 0 {
		return "", "", false
	}
	line, rest, _ := bytes.Cut(buf[:end+2], crlf2[:2])
	method, target, ok := requestLine(line)
	if !ok {
		return "", "", false
	}
	if string(target) != c.target {
		c.target = string(target)
	}
	uri := c.target
	path, query, hasQuery := strings.Cut(uri, "?")
	if tenant, key, ok = cachePath(path); !ok {
		return "", "", false
	}

	req := c.req
	clear(req.Header)
	host, hosts, length := "", 0, int64(-1)
	for i := 0; len(rest) > 0; i++ {
		line, rest, _ = bytes.Cut(rest, crlf2[:2])
		hl, ok := c.headerLine(i, line)
		if !ok {
			return "", "", false
		}
		switch hl.key {
		case "Host":
			host, hosts = hl.vals[0], hosts+1
			continue
		case "Content-Length":
			n, err := strconv.ParseUint(hl.vals[0], 10, 63)
			if length >= 0 || err != nil {
				return "", "", false
			}
			length = int64(n)
		}
		if slices.Contains(connectionHeaders[:], hl.key) {
			return "", "", false
		}
		if vs, dup := req.Header[hl.key]; dup {
			req.Header[hl.key] = append(vs[:len(vs):len(vs)], hl.vals...)
		} else {
			req.Header[hl.key] = hl.vals
		}
	}
	if hosts != 1 || !validHost(host) {
		return "", "", false
	}
	if length < 0 {
		length = 0 // a request without Content-Length has no body
	} else if length > 0 && method != http.MethodPut {
		return "", "", false
	}

	c.br.Discard(end + len(crlf2))
	req.Method, req.Host, req.RequestURI, req.Close = method, host, uri, false
	u := req.URL
	u.Path, u.RawPath = path, ""
	if needsEscape(path) {
		// What url.ParseRequestURI keeps: the unescaped path, and the
		// path as sent when escaping the former does not give it back.
		// requestLine checked every escape, so unescaping cannot fail.
		u.Path, _ = url.PathUnescape(path)
		if (&url.URL{Path: u.Path}).EscapedPath() != path {
			u.RawPath = path
		}
	}
	u.ForceQuery = hasQuery && query == ""
	u.RawQuery = query
	req.ContentLength = length
	c.body.n, c.body.eof = length, false
	if length == 0 {
		req.Body = http.NoBody
		return tenant, key, true
	}
	req.Body = &c.body
	switch {
	case c.readTimeout > 0:
		c.nc.SetReadDeadline(time.Now().Add(c.readTimeout))
	case c.idleTimeout > 0:
		c.nc.SetReadDeadline(time.Time{}) // the idle deadline must not cut the body
	}
	return tenant, key, true
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

// headerLine returns line i of the head, parsed: reused when the
// previous head had the same line there, else checked as net/http
// checks it and canonicalized. ok is false for a line net/http would
// refuse or fold.
func (c *wireConn) headerLine(i int, line []byte) (*headerLine, bool) {
	if i < len(c.lines) && bytes.Equal(c.lines[i].raw, line) {
		return &c.lines[i], true
	}
	name, value, found := bytes.Cut(line, []byte{':'})
	if !found || len(name) == 0 {
		return nil, false
	}
	for _, b := range name {
		if !tokenByte[b] {
			return nil, false
		}
	}
	value = bytes.Trim(value, " \t")
	for _, b := range value {
		if (b < ' ' && b != '\t') || b == 0x7f {
			return nil, false
		}
	}
	if i == len(c.lines) {
		c.lines = append(c.lines, headerLine{})
	}
	hl := &c.lines[i]
	hl.raw = append(hl.raw[:0], line...)
	hl.key = textproto.CanonicalMIMEHeaderKey(string(name))
	hl.vals = []string{string(value)}
	return hl, true
}

// validHost accepts the Host values parse serves: a name or address
// with an optional port. Anything else goes to net/http, which decides.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		if !hostByte[h[i]] {
			return false
		}
	}
	return h != ""
}

// needsEscape reports whether p has a byte that url's path escaping
// would write differently, so that the unescaped path must be computed.
func needsEscape(p string) bool {
	for i := 0; i < len(p); i++ {
		if !plainPathByte[p[i]] {
			return true
		}
	}
	return false
}

func isHex(b byte) bool { return '0' <= b && b <= '9' || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F' }

// Byte classes: pathByte, the target bytes net/http keeps as sent in an
// escaped path (RFC 3986 pchar, '/', and the brackets url leaves alone);
// plainPathByte, those url's path escaping writes as they are;
// tokenByte, the bytes of a header name (RFC 9110 token); hostByte, the
// bytes of a Host value parse serves.
var (
	pathByte      = byteSet("-._~!$&'()*+,;=:@[]/%")
	plainPathByte = byteSet("-_.~$&+,/:;=@")
	tokenByte     = byteSet("!#$%&'*+-.^_`|~")
	hostByte      = byteSet("-.:[]_")
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

func (b *wireBody) Close() error { return nil }

// A reply goes out in one write when its body is at most inlineBody
// bytes, the body copied after the head; a larger body is written on
// its own. maxKeptBody caps the body buffer a connection keeps between
// replies.
const (
	inlineBody  = 2 << 10
	maxKeptBody = 4 << 10
)

// wireWriter is the http.ResponseWriter of an owned connection. It holds
// the reply until the handler returns and then frames it by
// Content-Length, writing what net/http's server writes for the same
// handler calls: the status line, the handler's headers in sorted order,
// then Date, Content-Length and a sniffed Content-Type as net/http adds
// them, and the body unless the request is HEAD or the status has none.
// The handlers it serves set no framing header and no Date of their own.
// An ETag set as bytes (SetETag) takes the place of a header-map value,
// at the same place in the sorted order.
type wireWriter struct {
	nc      net.Conn
	hdr     http.Header
	req     *http.Request
	status  int
	head    []byte // status line and the handler's headers, as of WriteHeader
	hasType bool
	etag    []byte // the ETag value, when hasETag
	hasETag bool
	body    []byte
	keys    []string
	date    []byte
	dateSec int64
}

func (w *wireWriter) Header() http.Header { return w.hdr }

// SetETag sets the reply's ETag to a copy of tag, cleaned as net/http
// cleans a header value: newlines made spaces, ends trimmed. It
// implements cluster.ETagWriter, so that a relayed tag stays bytes.
func (w *wireWriter) SetETag(tag []byte) {
	w.etag = append(w.etag[:0], textproto.TrimBytes(tag)...)
	for i, b := range w.etag {
		if b == '\r' || b == '\n' {
			w.etag[i] = ' '
		}
	}
	w.hasETag = true
}

// closeValue is the Connection header of a 413.
var closeValue = []string{"close"}

func (w *wireWriter) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	w.status = code
	if text := http.StatusText(code); text != "" {
		w.head = append(w.head[:0], "HTTP/1.1 "...)
		w.head = strconv.AppendInt(w.head, int64(code), 10)
		w.head = append(append(append(w.head, ' '), text...), "\r\n"...)
	} else {
		w.head = fmt.Appendf(w.head[:0], "HTTP/1.1 %03d status code %d\r\n", code, code)
	}
	w.keys = w.keys[:0]
	for k := range w.hdr {
		w.keys = append(w.keys, k)
	}
	if _, ok := w.hdr["Etag"]; w.hasETag && !ok {
		w.keys = append(w.keys, "Etag")
	}
	// A 413 is the handler refusing a body it did not read to its end,
	// and net/http's server, noticing that, marks the handler's headers
	// Connection: close before they are written.
	if code == http.StatusRequestEntityTooLarge {
		w.keys = append(w.keys, "Connection")
	}
	slices.Sort(w.keys)
	_, w.hasType = w.hdr["Content-Type"]
	for _, k := range w.keys {
		if k == "Etag" && w.hasETag {
			w.head = append(append(append(append(w.head, k...), ": "...), w.etag...), "\r\n"...)
			continue
		}
		vs := w.hdr[k]
		if k == "Connection" {
			vs = closeValue
		}
		for _, v := range vs {
			if strings.ContainsAny(v, "\r\n") {
				v = newlineToSpace.Replace(v) // as net/http does: no header injection
			}
			w.head = append(append(append(w.head, k...), ": "...), textproto.TrimString(v)...)
			w.head = append(w.head, "\r\n"...)
		}
	}
}

var newlineToSpace = strings.NewReplacer("\n", " ", "\r", " ")

// bodyAllowed reports whether a reply with status may carry a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

func (w *wireWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// finish writes the reply and readies w for the next one; closing adds
// Connection: close, which a 413 already has.
func (w *wireWriter) finish(closing bool) error {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if now := time.Now(); now.Unix() != w.dateSec {
		w.date = now.UTC().AppendFormat(w.date[:0], http.TimeFormat)
		w.dateSec = now.Unix()
	}
	out := append(append(append(w.head, "Date: "...), w.date...), "\r\n"...)
	isHead := w.req.Method == http.MethodHead
	allowed := bodyAllowed(w.status)
	if allowed && (!isHead || len(w.body) > 0) {
		out = strconv.AppendInt(append(out, "Content-Length: "...), int64(len(w.body)), 10)
		out = append(out, "\r\n"...)
	}
	if allowed && !w.hasType && len(w.body) > 0 {
		out = append(append(append(out, "Content-Type: "...), http.DetectContentType(w.body)...), "\r\n"...)
	}
	if closing && w.status != http.StatusRequestEntityTooLarge {
		out = append(out, "Connection: close\r\n"...)
	}
	out = append(out, "\r\n"...)
	body := w.body
	if !allowed || isHead {
		body = nil
	}
	if len(body) <= inlineBody {
		out, body = append(out, body...), nil
	}
	_, err := w.nc.Write(out)
	if err == nil && len(body) > 0 {
		_, err = w.nc.Write(body)
	}
	w.head = out[:0]
	clear(w.hdr)
	w.hasETag = false
	w.status = 0
	w.body = w.body[:0]
	if cap(w.body) > maxKeptBody {
		w.body = nil
	}
	return err
}
