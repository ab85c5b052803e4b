package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"talus/internal/hash"
	"talus/internal/loadgen"
)

// TestBuildPattern pins the -pattern vocabulary: every documented name
// builds a source that yields addresses, and anything else is refused
// with the valid names in the message.
func TestBuildPattern(t *testing.T) {
	names := []string{"zipf", "rand", "scan", "phased", "strided", "pointerchase", "diurnal", "cliffseeker"}
	for _, name := range names {
		p, err := buildPattern(name, 1000, 0.9)
		if err != nil {
			t.Fatalf("-pattern %s: %v", name, err)
		}
		rng := hash.NewSplitMix64(1)
		distinct := make(map[uint64]bool)
		for i := 0; i < 64; i++ {
			distinct[p.Next(rng)] = true
		}
		if len(distinct) < 2 {
			t.Fatalf("-pattern %s drew one address 64 times", name)
		}
	}
	_, err := buildPattern("bogus", 1000, 0.9)
	if err == nil {
		t.Fatal("-pattern bogus accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-pattern error %q does not list %q", err, name)
		}
	}
}

// TestRunMaxRequests drives run end to end against a stub server: the
// request bound is honoured exactly, the report lands in -out as the
// JSON the CI smoke lanes parse, and a run whose every request fails
// returns an error.
func TestRunMaxRequests(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("X-Talus-Cache", "hit")
		w.Header().Set("X-Talus-Node", "stub")
	}))
	defer srv.Close()
	node := strings.TrimPrefix(srv.URL, "http://")
	out := filepath.Join(t.TempDir(), "report.json")

	if err := run(node+", ", "t", 100, 32, "zipf", 0.9, 2, 0, 120, 0.25, 0, 42, out); err != nil {
		t.Fatal(err)
	}
	if got := served.Load(); got != 120 {
		t.Fatalf("server saw %d requests, want 120", got)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, data)
	}
	if rep.Requests != 120 || rep.Errors != 0 || rep.HitRatio != 1 || rep.PerNode["stub"] != 120 {
		t.Fatalf("report = %+v", rep)
	}

	srv.Close()
	if err := run(node, "t", 100, 32, "zipf", 0.9, 2, 0, 8, 0, 0, 42, ""); err == nil {
		t.Fatal("run against a closed server returned nil")
	}
	if err := run(node, "t", 100, 32, "bogus", 0.9, 2, 0, 8, 0, 0, 42, ""); err == nil {
		t.Fatal("run with an unknown pattern returned nil")
	}
}
