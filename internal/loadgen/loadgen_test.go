package loadgen_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"talus/internal/adaptive"
	"talus/internal/loadgen"
	"talus/internal/serve"
	"talus/internal/sim"
	"talus/internal/store"
	"talus/internal/workload"
)

// newNode starts one serving node and returns its host:port.
func newNode(t *testing.T) string {
	t.Helper()
	ac, err := sim.BuildAdaptiveCache("vantage", 4096, 16, 1, 2, "LRU", 0.05,
		adaptive.Config{EpochAccesses: 1 << 14, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(ac, store.Config{NodeID: "load-node"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandler(st, serve.Config{}))
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestRunnerValidation(t *testing.T) {
	bad := []loadgen.Config{
		{},
		{Nodes: []string{"x:1"}, Tenant: "a", Keys: 10},                                   // no bound
		{Nodes: []string{"x:1"}, Tenant: "a", Keys: 0, MaxRequests: 1},                    // no keys
		{Nodes: []string{"x:1"}, Tenant: "", Keys: 10, MaxRequests: 1},                    // no tenant
		{Nodes: []string{"x:1"}, Tenant: "a", Keys: 10, MaxRequests: 1, SetFraction: 1.5}, // bad mix
	}
	for i, cfg := range bad {
		if _, err := loadgen.New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestClosedLoopRun drives a real node and pins the report's
// self-consistency: request accounting adds up, the hit ratio comes
// from the response headers, latency quantiles are populated and
// ordered, and per-node attribution names the serving node.
func TestClosedLoopRun(t *testing.T) {
	node := newNode(t)
	r, err := loadgen.New(loadgen.Config{
		Nodes:       []string{node},
		Tenant:      "bench",
		Keys:        50,
		ValueBytes:  128,
		Pattern:     workload.NewZipf(50, 0.9),
		Workers:     4,
		MaxRequests: 400,
		SetFraction: 0.3,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 400 {
		t.Fatalf("requests = %d, want 400", rep.Requests)
	}
	if rep.Gets+rep.Sets != rep.Requests {
		t.Fatalf("gets %d + sets %d != requests %d", rep.Gets, rep.Sets, rep.Requests)
	}
	if rep.Sets == 0 || rep.Gets == 0 {
		t.Fatalf("mix degenerate: %d gets, %d sets", rep.Gets, rep.Sets)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if rep.Hits+rep.Misses == 0 || rep.HitRatio <= 0 {
		t.Fatalf("hit accounting empty: %d hits, %d misses, ratio %v", rep.Hits, rep.Misses, rep.HitRatio)
	}
	lat := rep.Latency
	if lat.P50 == 0 || lat.P99 == 0 || lat.P999 == 0 {
		t.Fatalf("zero quantiles: %+v", lat)
	}
	if lat.P50 > lat.P99 || lat.P99 > lat.P999 || lat.P999 > lat.Max {
		t.Fatalf("quantiles out of order: %+v", lat)
	}
	if rep.PerNode["load-node"] != rep.Requests {
		t.Fatalf("per-node attribution = %v, want all %d on load-node", rep.PerNode, rep.Requests)
	}
	if rep.StatusClasses["2xx"]+rep.StatusClasses["4xx"] != rep.Requests {
		t.Fatalf("status classes %v do not cover %d requests", rep.StatusClasses, rep.Requests)
	}
	if rep.AchievedRPS <= 0 || rep.Seconds <= 0 {
		t.Fatalf("rates empty: %+v", rep)
	}
}

// TestDeadlineAccounting pins that the report adds up when the run's
// deadline cancels requests in flight: against a handler slower than
// the gap to the deadline every worker is mid-request when the run
// ends, and such a request must count toward nothing — not toward
// Requests, not toward Gets/Sets, not toward a status class.
func TestDeadlineAccounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(30 * time.Millisecond):
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	r, err := loadgen.New(loadgen.Config{
		Nodes:       []string{strings.TrimPrefix(srv.URL, "http://")},
		Tenant:      "slow",
		Keys:        10,
		Workers:     4,
		Duration:    100 * time.Millisecond,
		SetFraction: 0.5,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Fatalf("requests = %d, errors = %d", rep.Requests, rep.Errors)
	}
	var classes int64
	for _, c := range rep.StatusClasses {
		classes += c
	}
	if rep.Gets+rep.Sets != rep.Requests || classes != rep.Requests {
		t.Fatalf("report does not add up: gets %d + sets %d, status classes %v, requests %d",
			rep.Gets, rep.Sets, rep.StatusClasses, rep.Requests)
	}
}

// TestDurationBound pins the wall-clock stop condition.
func TestDurationBound(t *testing.T) {
	node := newNode(t)
	r, err := loadgen.New(loadgen.Config{
		Nodes:    []string{node},
		Tenant:   "timed",
		Keys:     10,
		Workers:  2,
		Duration: 150 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("150ms run took %v", elapsed)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests issued inside the duration")
	}
	// The deadline kills in-flight requests; those must not count as
	// server errors.
	if rep.Errors != 0 {
		t.Fatalf("errors = %d at shutdown", rep.Errors)
	}
}
