package cluster

import (
	"context"
	"fmt"
	"net/http"
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

// Owner returns the node owning (tenant, key).
func (c *Cluster) Owner(tenant, key string) string { return c.ring.Route(tenant, key) }

// Relay forwards one cache request to the peer owner and writes the
// owner's answer to w: its status, its body and the relayed response
// headers. method, the escaped path and body are sent as given, stamped
// with ForwardedHeader so the owner serves locally; of hdr, only the
// headers the hop relays travel. Any answer the owner gives — a 5xx
// included — is relayed, not an error. On error nothing has been written
// to w, so the caller still chooses the status.
func (c *Cluster) Relay(ctx context.Context, w http.ResponseWriter, method, owner, path string, body []byte, hdr http.Header) error {
	p := c.peers[owner]
	if p == nil {
		return fmt.Errorf("cluster: %q is not a peer of %s", owner, c.self)
	}
	return p.relay(ctx, w, c.self, method, path, body, hdr)
}
