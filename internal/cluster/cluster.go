package cluster

import (
	"context"
	"fmt"
)

// ForwardedHeader marks a request as already forwarded once by a peer
// node. A node receiving it serves locally no matter what its own ring
// says: if two nodes momentarily disagree about membership, the worst
// case is one extra hop, never a forwarding loop.
const ForwardedHeader = "X-Talus-Forwarded"

// Config parameterizes New.
type Config struct {
	// Self is this node's own name in Nodes (typically host:port — the
	// address peers dial it at).
	Self string
	// Nodes is the full cluster membership, Self included.
	Nodes []string
	// VNodes is the virtual-node count per member (0 = DefaultVNodes).
	VNodes int
	// Seed seeds the ring's hashes; every node (and routing client)
	// must share it.
	Seed uint64
}

// Cluster binds a Ring to this node's identity and a keep-alive
// connection pool per peer: everything the serving layer's proxy mode
// needs to decide ownership and relay misses-of-ownership. Safe for
// concurrent use.
type Cluster struct {
	ring  *Ring
	self  string
	peers map[string]*peer // every member but self; read-only after New
}

// New validates cfg and builds the cluster view. Self must appear in
// Nodes — a proxy that is not a member would forward every request.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Nodes, cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self node name")
	}
	c := &Cluster{ring: ring, self: cfg.Self, peers: make(map[string]*peer, len(ring.nodes))}
	found := false
	for _, n := range ring.nodes {
		if n == cfg.Self {
			found = true
		} else {
			c.peers[n] = newPeer(n)
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the node list %v", cfg.Self, ring.nodes)
	}
	return c, nil
}

// Self returns this node's own name.
func (c *Cluster) Self() string { return c.self }

// Ring returns the membership ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// Owner returns the node owning (tenant, key), as Ring.Route does for
// their strings.
func (c *Cluster) Owner(tenant, key []byte) string {
	return c.ring.owner(keyHash(c.ring.seed, tenant, key))
}

// Request is the part of a cache request the hop relays to its owner:
// the method, the escaped path, the request headers that keep their
// meaning across the hop, and the body.
type Request struct {
	Method string
	Path   []byte
	Header [len(RequestHeaders)][]byte // the values of RequestHeaders; empty: not sent
	Body   []byte
}

// The relayed request headers, as indexes into RequestHeaders and
// Request.Header.
const (
	IfNoneMatch = iota
	TTL
	ContentType
)

// RequestHeaders name the request headers the hop relays, in canonical
// form and in the order it writes them. Kept to the protocol's own
// vocabulary: hop-by-hop headers and client connection metadata stay on
// their own hop.
var RequestHeaders = [...]string{IfNoneMatch: "If-None-Match", TTL: "X-Talus-Ttl", ContentType: "Content-Type"}

// Reply is a cache response: its status, the four response headers a
// cache reply carries, and its body. An empty value is a header not
// sent. Body may be a store's value or the reply's own storage, so it is
// never written into.
type Reply struct {
	Status      int
	ContentType string
	ETag        []byte
	Cache, Node string // X-Talus-Cache, X-Talus-Node
	Body        []byte

	own []byte // storage a relayed body is read into
}

// maxKeptBody caps the body storage a Reply keeps across Reset.
const maxKeptBody = 4 << 10

// Reset empties r for the next reply, keeping its ETag storage and, up
// to maxKeptBody, its body storage.
func (r *Reply) Reset() {
	own := r.own[:0]
	if cap(own) > maxKeptBody {
		own = nil
	}
	*r = Reply{ETag: r.ETag[:0], own: own}
}

// Relay forwards req to the peer owner and fills rep from the owner's
// answer: its status, its body and the relayed response headers. req is
// sent as given, stamped with ForwardedHeader so the owner serves
// locally, except that a HEAD is sent as the GET the owner serves it
// as: its body is what the caller's HEAD reply states the length of.
// Any answer the owner gives — a 5xx included — is relayed, not an
// error. On error rep is left as it was, so a reset reply still has
// Status 0 and the caller chooses the status.
func (c *Cluster) Relay(ctx context.Context, owner string, req *Request, rep *Reply) error {
	p := c.peers[owner]
	if p == nil {
		return fmt.Errorf("cluster: %q is not a peer of %s", owner, c.self)
	}
	return p.relay(ctx, c.self, req, rep)
}
