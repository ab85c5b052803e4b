package serve_test

import (
	"net"
	"sync"
	"time"
)

// pipeListener is a listener of in-memory connections, which hold no
// socket: Dial returns one end of a new connection and Accept yields
// the other.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// Dial connects to l.
func (l *pipeListener) Dial() (net.Conn, error) {
	client, server := newPipeConns()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeConn is one end of an in-memory connection that, like TCP and
// unlike one net.Pipe, can be half-closed: it reads one net.Pipe and
// writes another.
type pipeConn struct{ r, w net.Conn }

func newPipeConns() (a, b *pipeConn) {
	aReads, bWrites := net.Pipe()
	bReads, aWrites := net.Pipe()
	return &pipeConn{aReads, aWrites}, &pipeConn{bReads, bWrites}
}

func (c *pipeConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *pipeConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *pipeConn) CloseWrite() error           { return c.w.Close() }
func (c *pipeConn) LocalAddr() net.Addr         { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr        { return pipeAddr{} }

func (c *pipeConn) Close() error {
	c.r.Close()
	return c.w.Close()
}

func (c *pipeConn) SetDeadline(t time.Time) error {
	c.r.SetReadDeadline(t)
	return c.w.SetWriteDeadline(t)
}

func (c *pipeConn) SetReadDeadline(t time.Time) error  { return c.r.SetReadDeadline(t) }
func (c *pipeConn) SetWriteDeadline(t time.Time) error { return c.w.SetWriteDeadline(t) }
