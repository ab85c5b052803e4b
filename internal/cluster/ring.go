package cluster

import (
	"errors"
	"fmt"
	"sort"

	"talus/internal/hash"
)

// DefaultVNodes is the virtual-node count per physical node when the
// caller does not choose one. 64 points per node keeps the relative
// spread of per-node key shares around 1/sqrt(64) ≈ 12% while ring
// construction stays trivially cheap (N·64 hashes, one sort).
const DefaultVNodes = 64

// ErrNoNodes reports a ring built from an empty node list.
var ErrNoNodes = errors.New("cluster: ring needs at least one node")

// ErrDuplicateNode reports the same node name listed twice.
var ErrDuplicateNode = errors.New("cluster: duplicate node")

// point is one virtual node on the hash circle.
type point struct {
	hash uint64
	node int32 // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring: node names hashed onto
// the 64-bit circle at vnodes points each. Construction is pure and
// deterministic in (nodes, vnodes, seed) — node list order does not
// matter — so every process that shares the configuration computes
// identical ownership with no coordination. A Ring is safe for
// concurrent use.
type Ring struct {
	nodes  []string // sorted, unique
	vnodes int
	seed   uint64
	points []point // sorted by hash
}

// NewRing builds a ring over nodes with vnodes virtual nodes each
// (0 selects DefaultVNodes) and a deterministic seed. Node names must
// be non-empty and unique.
func NewRing(nodes []string, vnodes int, seed uint64) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: %d virtual nodes; need at least 1", vnodes)
	}
	sorted := make([]string, len(nodes))
	copy(sorted, nodes)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, errors.New("cluster: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateNode, n)
		}
	}
	r := &Ring{nodes: sorted, vnodes: vnodes, seed: seed}
	r.points = make([]point, 0, len(sorted)*vnodes)
	for i, n := range sorted {
		base := hash.FNV64a(n)
		for v := 0; v < vnodes; v++ {
			// Mix64 breaks FNV's avalanche-free tail: without it,
			// consecutive vnode indices land on near-consecutive hashes
			// and one node's points clump into one arc.
			h := hash.Mix64(base ^ hash.Mix64(seed+uint64(v)*0x9E3779B97F4A7C15))
			r.points = append(r.points, point{hash: h, node: int32(i)})
		}
	}
	// Ties (astronomically unlikely) break by node index so the sort —
	// and therefore ownership — is a pure function of the inputs.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// keyHash places (tenant, key) on the circle of a ring seeded with
// seed. Tenant and key are hashed separately before mixing, so no
// (tenant, key) concatenation ambiguity exists, and Mix64 destroys
// FNV's GF(2)-linear structure before the ring lookup. A string and its
// bytes hash alike.
func keyHash[K string | []byte](seed uint64, tenant, key K) uint64 {
	return hash.Mix64(hash.FNV64a(tenant) ^ hash.Mix64(hash.FNV64a(key)^seed))
}

// Route returns the node owning (tenant, key): the first ring point at
// or clockwise after the key's hash.
func (r *Ring) Route(tenant, key string) string { return r.owner(keyHash(r.seed, tenant, key)) }

// owner returns the node owning hash h on the circle.
func (r *Ring) owner(h uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point owns the top arc
	}
	return r.nodes[r.points[i].node]
}

// Nodes returns the ring's member names in sorted order (a copy).
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// VNodes returns the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// Seed returns the ring's deterministic seed.
func (r *Ring) Seed() uint64 { return r.seed }

// Shares returns each node's analytic share of the hash circle — the
// fraction of the 64-bit space its arcs cover, which is the expected
// fraction of uniformly hashed keys it owns. Shares sum to 1.
func (r *Ring) Shares() map[string]float64 {
	const twoTo64 = 1 << 63 * 2.0
	out := make(map[string]float64, len(r.nodes))
	if len(r.points) == 1 {
		// A single point owns the whole circle; the wrapping subtraction
		// below would call that arc zero.
		out[r.nodes[r.points[0].node]] = 1
		return out
	}
	arcs := make([]uint64, len(r.nodes))
	// Each point owns the arc from the previous point (exclusive) up to
	// itself (inclusive); uint64 wrap-around subtraction measures the
	// first point's arc across the circle's top correctly.
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arcs[p.node] += p.hash - prev
		prev = p.hash
	}
	for i, n := range r.nodes {
		out[n] = float64(arcs[i]) / twoTo64
	}
	return out
}
