package store_test

import (
	"errors"
	"testing"

	"talus/internal/adaptive"
	"talus/internal/store"
)

func buildControlStore(t *testing.T, cfg store.Config) *store.Store {
	t.Helper()
	ac, err := adaptive.Build("vantage", 8192, 16, 1, 4, "LRU", 0.05,
		adaptive.Config{EpochAccesses: 1 << 14, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(ac, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestControlSnapshot(t *testing.T) {
	st := buildControlStore(t, store.Config{
		Tenants: []string{"gold", "bronze"},
		Weights: map[string]float64{"gold": 4},
		LineBounds: map[string]store.LineBounds{
			"bronze": {Min: 256, Max: 2048},
		},
	})
	cs := st.Control()
	if len(cs.Tenants) != 2 {
		t.Fatalf("control rows: %+v", cs.Tenants)
	}
	// Rows are sorted by name: bronze first.
	bronze, gold := cs.Tenants[0], cs.Tenants[1]
	if bronze.Tenant != "bronze" || gold.Tenant != "gold" {
		t.Fatalf("row order: %+v", cs.Tenants)
	}
	if gold.Weight != 4 || bronze.Weight != 1 {
		t.Fatalf("weights: gold %g bronze %g", gold.Weight, bronze.Weight)
	}
	if bronze.MinLines != 256 || bronze.MaxLines != 2048 {
		t.Fatalf("bronze bounds: %+v", bronze)
	}
	if cs.Allocator != "hill" || cs.EpochAccesses != 1<<14 {
		t.Fatalf("controller state: %+v", cs.ControllerState)
	}

	// Runtime adjustment is visible in the next snapshot.
	if err := st.SetTenantWeight("bronze", 2.5); err != nil {
		t.Fatal(err)
	}
	if got := st.Control().Tenants[0].Weight; got != 2.5 {
		t.Fatalf("bronze weight after set: %g", got)
	}
	// Unknown tenants are never minted by the control plane.
	if err := st.SetTenantWeight("nobody", 1); !errors.Is(err, store.ErrUnknownTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if err := st.SetTenantWeight("gold", -2); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestControlConfigAppliedOnAutoRegister(t *testing.T) {
	// A weight configured for a tenant that registers later (first Set)
	// must attach when it claims its partition.
	st := buildControlStore(t, store.Config{
		Weights: map[string]float64{"late": 3},
	})
	if _, err := st.Set("late", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	cs := st.Control()
	if len(cs.Tenants) != 1 || cs.Tenants[0].Weight != 3 {
		t.Fatalf("auto-registered weight: %+v", cs.Tenants)
	}
}

func TestControlConfigValidation(t *testing.T) {
	ac, err := adaptive.Build("vantage", 8192, 16, 1, 2, "LRU", 0.05,
		adaptive.Config{Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]store.Config{
		"negative weight": {Weights: map[string]float64{"a": -1}},
		"empty name":      {Weights: map[string]float64{"": 1}},
		"cap below floor": {LineBounds: map[string]store.LineBounds{"a": {Min: 100, Max: 50}}},
		"negative floor":  {LineBounds: map[string]store.LineBounds{"a": {Min: -1}}},
	} {
		if _, err := store.New(ac, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
