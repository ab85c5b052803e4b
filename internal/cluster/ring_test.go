package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"talus/internal/hash"
)

// sampleKeys returns k deterministic (tenant, key) pairs spread over a
// few tenants.
func sampleKeys(k int) [][2]string {
	out := make([][2]string, k)
	for i := range out {
		out[i] = [2]string{fmt.Sprintf("tenant%d", i%5), fmt.Sprintf("key-%06d", i)}
	}
	return out
}

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:9000", i+1)
	}
	return out
}

// TestRingStability pins the consistent-hashing contract: removing one
// of N nodes only remaps keys that node owned (everything else stays
// put), adding a node only steals keys for itself, and the churn is
// ~K/N keys, bounded by 2K/N.
func TestRingStability(t *testing.T) {
	const K, N = 4000, 6
	nodes := nodeNames(N)
	keys := sampleKeys(K)

	full, err := NewRing(nodes, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]string, K)
	for i, tk := range keys {
		owners[i] = full.Route(tk[0], tk[1])
	}

	// Remove each node in turn: survivors keep every key they owned.
	for drop := 0; drop < N; drop++ {
		var rest []string
		for i, n := range nodes {
			if i != drop {
				rest = append(rest, n)
			}
		}
		smaller, err := NewRing(rest, 64, 42)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for i, tk := range keys {
			now := smaller.Route(tk[0], tk[1])
			if owners[i] == nodes[drop] {
				moved++
				if now == nodes[drop] {
					t.Fatalf("key %v still routed to removed node %s", tk, nodes[drop])
				}
			} else if now != owners[i] {
				t.Fatalf("key %v moved %s → %s though %s was not removed",
					tk, owners[i], now, nodes[drop])
			}
		}
		if bound := 2 * K / N; moved > bound {
			t.Fatalf("removing %s moved %d of %d keys, want ≤ %d (~2K/N)", nodes[drop], moved, K, bound)
		}
	}

	// Add a node: only the newcomer gains keys, stealing ~K/(N+1).
	grown, err := NewRing(append(nodeNames(N), "10.0.0.200:9000"), 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	stolen := 0
	for i, tk := range keys {
		now := grown.Route(tk[0], tk[1])
		if now == owners[i] {
			continue
		}
		if now != "10.0.0.200:9000" {
			t.Fatalf("key %v moved %s → %s, not to the added node", tk, owners[i], now)
		}
		stolen++
	}
	if bound := 2 * K / (N + 1); stolen > bound || stolen == 0 {
		t.Fatalf("added node stole %d of %d keys, want in (0, %d] (~2K/(N+1))", stolen, K, bound)
	}
}

// TestRingDeterminism pins that routing is a pure function of
// (nodes, vnodes, seed): node list order is irrelevant, rebuilt rings
// agree key for key, and the routing table matches a golden fingerprint
// so a ring built in another process — or another release — routes
// byte-identically.
func TestRingDeterminism(t *testing.T) {
	nodes := []string{"c:1", "a:1", "b:1"}
	r1, err := NewRing(nodes, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"b:1", "c:1", "a:1"}, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	for _, tk := range sampleKeys(1000) {
		o1, o2 := r1.Route(tk[0], tk[1]), r2.Route(tk[0], tk[1])
		if o1 != o2 {
			t.Fatalf("route(%v) differs across construction orders: %q vs %q", tk, o1, o2)
		}
		table.WriteString(o1)
	}
	fp := hash.FNV64a(table.String())
	// The golden fingerprint of the full routing table. If this changes,
	// ring placement changed: every deployed node must be upgraded in
	// lock-step, since mixed fleets would disagree about ownership.
	const golden = uint64(0x110b82f1075268a8)
	if fp != golden {
		t.Fatalf("routing-table fingerprint %#x, want %#x — ring placement changed", fp, golden)
	}
}

// TestRingShares pins that the analytic shares sum to 1 and sit near
// 1/N at the default vnode count.
func TestRingShares(t *testing.T) {
	const N = 5
	r, err := NewRing(nodeNames(N), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.VNodes() != DefaultVNodes {
		t.Fatalf("VNodes() = %d, want default %d", r.VNodes(), DefaultVNodes)
	}
	sum := 0.0
	for n, share := range r.Shares() {
		sum += share
		if share < 0.5/N || share > 2.0/N {
			t.Fatalf("node %s share %.4f, want within [0.5/N, 2/N] of 1/N = %.4f", n, share, 1.0/N)
		}
	}
	if sum < 0.9999 || sum > 1.0001 {
		t.Fatalf("shares sum to %.6f, want 1", sum)
	}

	single, err := NewRing([]string{"solo:1"}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := single.Shares()["solo:1"]; s != 1 {
		t.Fatalf("single-point ring share = %v, want 1", s)
	}
}

// TestRingErrors pins construction validation.
func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 4, 0); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := NewRing([]string{"a:1", "a:1"}, 4, 0); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := NewRing([]string{"a:1", ""}, 4, 0); err == nil {
		t.Fatal("empty node name accepted")
	}
	if _, err := NewRing([]string{"a:1"}, -1, 0); err == nil {
		t.Fatal("negative vnodes accepted")
	}
	if _, err := New(Config{Self: "x:1", Nodes: []string{"a:1", "b:1"}}); err == nil {
		t.Fatal("self outside the node list accepted")
	}
	if _, err := New(Config{Nodes: []string{"a:1"}}); err == nil {
		t.Fatal("empty self accepted")
	}
}

// TestRingConcurrentRoute hammers Route and Shares from many
// goroutines under -race: the ring is immutable, so any write the
// detector sees is a bug.
func TestRingConcurrentRoute(t *testing.T) {
	r, err := NewRing(nodeNames(4), 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	keys := sampleKeys(512)
	want := make([]string, len(keys))
	for i, tk := range keys {
		want[i] = r.Route(tk[0], tk[1])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, tk := range keys {
					if got := r.Route(tk[0], tk[1]); got != want[i] {
						t.Errorf("concurrent Route(%v) = %q, want %q", tk, got, want[i])
						return
					}
				}
				r.Shares()
			}
		}()
	}
	wg.Wait()
}

// TestOwnerMatchesRoute: Cluster.Owner, which the handler asks on a
// request's bytes, names the node Ring.Route names for the same strings,
// which is what clients and the benchmark route by.
func TestOwnerMatchesRoute(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	c, err := New(Config{Self: "a:1", Nodes: nodes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sampleKeys(2000) {
		if got, want := c.Owner([]byte(k[0]), []byte(k[1])), c.Ring().Route(k[0], k[1]); got != want {
			t.Fatalf("Owner(%q, %q) = %s, Route = %s", k[0], k[1], got, want)
		}
	}
}
