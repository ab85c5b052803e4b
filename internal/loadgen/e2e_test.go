package loadgen_test

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/cluster"
	"talus/internal/loadgen"
	"talus/internal/serve"
	"talus/internal/store"
	"talus/internal/workload"
)

// startNodes brings up n proxying serving nodes of lines capacity each
// (n = 1 starts a plain single node) and returns their addresses.
func startNodes(t *testing.T, n int, lines int64) []string {
	t.Helper()
	servers := make([]*httptest.Server, n)
	nodes := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		nodes[i] = servers[i].Listener.Addr().String()
	}
	for i, srv := range servers {
		var cl *cluster.Cluster
		if n > 1 {
			var err error
			cl, err = cluster.New(cluster.Config{Self: nodes[i], Nodes: nodes, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
		}
		ac, err := adaptive.Build("vantage", lines, 16, 1, 2, 0.05,
			adaptive.Config{EpochAccesses: 1 << 20, Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.New(ac, store.Config{NodeID: nodes[i]})
		if err != nil {
			t.Fatal(err)
		}
		srv.Config.Handler = serve.NewHandler(st, serve.Config{Cluster: cl})
		srv.Start()
		t.Cleanup(func() {
			srv.Close()
			st.Close()
		})
	}
	return nodes
}

// drive runs one deterministic zipf workload against nodes and returns
// the report.
func drive(t *testing.T, nodes []string) *loadgen.Report {
	t.Helper()
	r, err := loadgen.New(loadgen.Config{
		Nodes:       nodes,
		Tenant:      "bench",
		Keys:        6000,
		ValueBytes:  64,
		Pattern:     func() workload.Pattern { return workload.NewZipf(6000, 0.9) },
		Workers:     4,
		MaxRequests: 6000,
		SetFraction: 0.25,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 6000 || rep.Errors != 0 {
		t.Fatalf("run degenerate: %d requests, %d errors", rep.Requests, rep.Errors)
	}
	return rep
}

// TestClusterVsSingleHitRatio is the acceptance experiment from the
// issue, inlined as a test: the same zipf workload driven at a 3-node
// cluster (N lines per node) and at one node of 3N lines must land
// within 10% relative hit ratio. Consistent hashing splits the key
// population into three independent streams, and hash-partitioned LRU
// tracks global LRU closely under an independent-reference workload —
// this pins that the cluster tier actually delivers that, proxy hop,
// ring, and all.
func TestClusterVsSingleHitRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-request e2e")
	}
	const perNode = 2048
	clusterNodes := startNodes(t, 3, perNode)
	singleNode := startNodes(t, 1, 3*perNode)

	clustered := drive(t, clusterNodes)
	single := drive(t, singleNode)

	if clustered.HitRatio <= 0 || single.HitRatio <= 0 {
		t.Fatalf("degenerate hit ratios: cluster %v, single %v", clustered.HitRatio, single.HitRatio)
	}
	rel := math.Abs(clustered.HitRatio-single.HitRatio) / single.HitRatio
	t.Logf("hit ratio: 3-node %.4f vs single(3x) %.4f (relative diff %.3f)",
		clustered.HitRatio, single.HitRatio, rel)
	if rel > 0.10 {
		t.Fatalf("3-node hit ratio %.4f vs single-node-at-3x %.4f: relative diff %.3f > 0.10",
			clustered.HitRatio, single.HitRatio, rel)
	}

	// Every node served traffic, and traffic went through the ring: the
	// per-node split should be near the analytic shares (loose bound —
	// zipf weight concentrates on few keys).
	if len(clustered.PerNode) != 3 {
		t.Fatalf("per-node attribution %v, want all 3 nodes", clustered.PerNode)
	}
	for n, c := range clustered.PerNode {
		if frac := float64(c) / float64(clustered.Requests); frac < 0.05 || frac > 0.75 {
			t.Fatalf("node %s served %.2f of traffic — ring badly skewed: %v", n, frac, clustered.PerNode)
		}
	}
	// Latency histograms populated on both sides.
	for _, rep := range []*loadgen.Report{clustered, single} {
		if rep.Latency.P50 == 0 || rep.Latency.P999 == 0 {
			t.Fatalf("empty latency: %+v", rep.Latency)
		}
	}
}
