package cluster

import (
	"context"
	"net"
	"testing"
)

// dialPipes makes every dial until t ends return one end of a net.Pipe
// and sends the other, the owner's side, on the returned channel: a
// connection that holds no socket, so a fuzzer's inputs leave nothing
// in TIME_WAIT.
func dialPipes(t testing.TB) <-chan net.Conn {
	accepted := make(chan net.Conn)
	prev := dial
	dial = func(ctx context.Context, _ string) (net.Conn, error) {
		c, owner := net.Pipe()
		select {
		case accepted <- owner:
			return c, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	t.Cleanup(func() { dial = prev })
	return accepted
}
