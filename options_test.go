package talus

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"talus/internal/adaptive"
)

// feedDeterministic drives an identical two-phase stream into ac:
// enough traffic for several epochs at the small test scales.
func feedDeterministic(ac *AdaptiveCache, rounds int) {
	parts := ac.NumLogical()
	for round := 0; round < rounds; round++ {
		for p := 0; p < parts; p++ {
			for i := 0; i < 256; i++ {
				// Partition p scans a footprint that grows with p, offset
				// into its own address space like the feeders do.
				ac.Access(uint64(round*256+i)%uint64(2048*(p+1))|uint64(p+1)<<48, p)
			}
		}
	}
}

// cacheState captures everything observable about an adaptive cache
// after a deterministic feed.
type cacheState struct {
	Logical  int
	Epochs   int
	Allocs   []int64
	Capacity int64
	Budget   int64
	Shadow   []int64
	Configs  []Config
}

func snapshot(t *testing.T, ac *AdaptiveCache) cacheState {
	t.Helper()
	if err := ac.Err(); err != nil {
		t.Fatal(err)
	}
	s := cacheState{
		Logical:  ac.NumLogical(),
		Epochs:   ac.Epochs(),
		Allocs:   ac.Allocations(),
		Capacity: ac.Shadowed().Inner().Capacity(),
		Budget:   ac.Shadowed().Inner().PartitionableCapacity(),
		Shadow:   ac.Shadowed().ShadowSizes(),
	}
	for p := 0; p < ac.NumLogical(); p++ {
		s.Configs = append(s.Configs, ac.Config(p))
	}
	return s
}

// TestNewThreadsOptionsIntoBuild is the options-threading matrix: for
// every configuration, talus.New with options must build the exact
// stack adaptive.Build builds from the positional arguments each option
// names — identical capacities, allocations, epoch counts, shadow
// sizes, and per-partition Talus configs after an identical
// deterministic feed.
func TestNewThreadsOptionsIntoBuild(t *testing.T) {
	lookahead, err := AllocatorByName("lookahead")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		opts   []Option
		rounds int
		// adaptive.Build arguments.
		scheme string
		lines  int64
		assoc  int
		shards int
		parts  int
		policy string
		margin float64
		acfg   AdaptiveConfig
	}{
		{
			name: "defaults-made-explicit",
			opts: []Option{WithCapacity(16384), WithShards(1), WithPartitions(2), WithSeed(9),
				WithAdaptive(AdaptiveConfig{EpochAccesses: 1 << 14, Seed: 9})},
			rounds: 200,
			scheme: "vantage", lines: 16384, assoc: 32, shards: 1, parts: 2, policy: "LRU",
			margin: DefaultMargin, acfg: AdaptiveConfig{EpochAccesses: 1 << 14, Seed: 9},
		},
		{
			name: "every-knob-turned",
			opts: []Option{
				WithCapacityMB(1), WithScheme("set"), WithPolicy("SRRIP"), WithAssoc(16),
				WithShards(4), WithPartitions(3), WithMargin(0.1), WithSeed(77),
				WithAllocator(lookahead),
				WithAdaptive(AdaptiveConfig{EpochAccesses: 1 << 13, Allocator: lookahead, Seed: 77}),
			},
			rounds: 200,
			scheme: "set", lines: int64(MBToLines(1)), assoc: 16, shards: 4, parts: 3, policy: "SRRIP",
			margin: 0.1, acfg: AdaptiveConfig{EpochAccesses: 1 << 13, Allocator: lookahead, Seed: 77},
		},
		{
			// The all-defaults control loop (EpochAccesses 2^20) needs a
			// longer feed to cross an epoch boundary.
			name: "margin-disabled-way-scheme-default-epoch",
			opts: []Option{
				WithCapacity(8192), WithScheme("way"), WithPolicy("DRRIP"),
				WithShards(2), WithPartitions(2), WithMargin(-1), WithSeed(5),
			},
			rounds: 2100,
			scheme: "way", lines: 8192, assoc: 32, shards: 2, parts: 2, policy: "DRRIP",
			margin: 0, acfg: AdaptiveConfig{Seed: 5},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fresh, err := New(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := adaptive.Build(c.scheme, c.lines, c.assoc, c.shards, c.parts, c.policy, c.margin, c.acfg)
			if err != nil {
				t.Fatal(err)
			}
			feedDeterministic(fresh, c.rounds)
			feedDeterministic(direct, c.rounds)
			a, b := snapshot(t, fresh), snapshot(t, direct)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("New state diverges from adaptive.Build:\n new:    %+v\n direct: %+v", a, b)
			}
			if fresh.Epochs() == 0 {
				t.Fatal("feed too small: no epochs ran, matrix proves nothing")
			}
		})
	}
}

// TestNewZeroOptions is the acceptance criterion: talus.New() alone
// yields a working adaptive sharded cache with the documented defaults.
func TestNewZeroOptions(t *testing.T) {
	ac, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	if got := ac.NumLogical(); got != 8 {
		t.Fatalf("default partitions = %d, want 8", got)
	}
	if got := ac.Shadowed().Inner().(*ShardedCache).NumShards(); got != 8 {
		t.Fatalf("default shards = %d, want 8", got)
	}
	if got, want := ac.Shadowed().Inner().Capacity(), int64(MBToLines(8)); got != want {
		t.Fatalf("default capacity = %d lines, want %d (8 MB)", got, want)
	}
	// It serves traffic and reconfigures.
	for i := 0; i < 512; i++ {
		ac.Access(uint64(i)|1<<48, 0)
	}
	if err := ac.ForceEpoch(); err != nil {
		t.Fatal(err)
	}
	if len(ac.Allocations()) != 8 {
		t.Fatalf("allocations = %v", ac.Allocations())
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"bad capacity", []Option{WithCapacity(0)}, "positive size"},
		{"bad shards", []Option{WithShards(-2)}, "at least 1"},
		{"bad partitions", []Option{WithPartitions(-1)}, "at least 1"},
		{"bad assoc", []Option{WithAssoc(-4)}, "at least 1 way"},
		{"tenant overflow", []Option{WithPartitions(1), WithTenants("a", "b")}, "raise WithPartitions"},
		{"bad scheme", []Option{WithScheme("quantum")}, "valid: none, way, set, vantage"},
		{"bad policy", []Option{WithPolicy("FIFO")}, "valid: LRU, SRRIP"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.opts...); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("New = %v, want error mentioning %q", err, c.want)
			}
		})
	}
}

// TestNewStoreOptions exercises the store-only options through the
// public builder: tenant pre-registration sizes the partition count,
// static mode closes the door, and the value cap is enforced.
func TestNewStoreOptions(t *testing.T) {
	st, err := NewStore(
		WithCapacity(16384),
		WithShards(2),
		WithStaticTenants("a", "b", "c"),
		WithMaxValueBytes(4),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Cache().NumLogical(); got != 3 {
		t.Fatalf("partitions grew to %d, want len(tenants) = 3", got)
	}
	// Open (non-static) pre-registration must not shrink the default
	// partition count: unnamed tenants can still register on first use.
	open, err := NewStore(WithCapacity(16384), WithShards(1), WithTenants("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	if got := open.Cache().NumLogical(); got != 8 {
		t.Fatalf("open store with one tenant built %d partitions, want the default 8", got)
	}
	if _, err := open.Set("walk-in", "k", []byte("v")); err != nil {
		t.Fatalf("walk-in tenant refused: %v", err)
	}
	if _, err := st.Set("a", "k", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	v, _, err := st.Get("a", "k")
	if err != nil || string(v) != "ok" {
		t.Fatalf("round trip = %q, %v", v, err)
	}
	if _, err := st.Set("a", "k", []byte("too big")); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("value cap: %v", err)
	}
	if _, err := st.Set("d", "k", nil); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("static tenants: %v", err)
	}
}

// TestNewStoreRefusesInfeasibleFloors: tenant floors summing past the
// partitionable capacity used to build a store whose every epoch failed
// in the allocator — the allocation frozen at the initial fair split,
// the error visible nowhere a store or HTTP caller looks. Pre-declared
// tenants now fail construction; a walk-in tenant whose floor no longer
// fits fails its registering Set and leaves the allocation alone.
func TestNewStoreRefusesInfeasibleFloors(t *testing.T) {
	_, err := NewStore(WithCapacity(4096), WithShards(1), WithStaticTenants("a", "b"),
		WithTenantLines("a", 4000, 0), WithTenantLines("b", 4000, 0),
		WithAdaptive(AdaptiveConfig{EpochAccesses: 1 << 12, Seed: 1}))
	if err == nil || !strings.Contains(err.Error(), "line floors sum to") {
		t.Fatalf("NewStore with 8000 lines of floors on 4096 = %v", err)
	}

	st, err := NewStore(WithCapacity(4096), WithShards(1), WithPartitions(2), WithTenants("a"),
		WithTenantLines("a", 3000, 0), WithTenantLines("walk-in", 3000, 0),
		WithAdaptive(AdaptiveConfig{EpochAccesses: 1 << 12, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := st.Cache().Allocations()
	if _, err := st.Set("walk-in", "k", []byte("v")); err == nil || !strings.Contains(err.Error(), "floors sum to 6000") {
		t.Fatalf("walk-in tenant with an unfittable floor: Set = %v", err)
	}
	if got := st.Cache().Allocations(); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused registration moved the allocation: %v -> %v", before, got)
	}
	for i := 0; i < 1<<13; i++ {
		if _, err := st.Set("a", fmt.Sprintf("k%d", i%2048), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cs := st.Control()
	if cs.Epochs == 0 || cs.LastError != "" {
		t.Fatalf("after the refusal: %d epochs, last_error %q", cs.Epochs, cs.LastError)
	}
}

// TestRefusedRegistrationLeaksNothing: register used to apply a tenant's
// weight to the free partition before the floor check could refuse the
// tenant, so the partition kept the weight and handed it to whoever
// claimed it next — "gold" is refused, "bronze" walks in at weight 4.
func TestRefusedRegistrationLeaksNothing(t *testing.T) {
	st, err := NewStore(WithCapacity(4096), WithShards(1), WithPartitions(3), WithTenants("a"),
		WithTenantLines("a", 3000, 0),
		WithTenantWeight("gold", 4), WithTenantLines("gold", 3000, 0),
		WithAdaptive(AdaptiveConfig{EpochAccesses: 1 << 12, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.Set("gold", "k", []byte("v"))
	if !errors.Is(err, ErrInfeasibleBounds) || !strings.Contains(err.Error(), "line floors sum to 6000, partitionable capacity 3686") {
		t.Fatalf("gold's unfittable floor: Set = %v", err)
	}
	if _, err := st.Set("bronze", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, row := range st.Control().Tenants {
		if row.Tenant == "gold" {
			t.Fatalf("refused tenant is registered: %+v", row)
		}
		if row.Tenant == "bronze" && (row.Partition != 1 || row.Weight != 1 || row.MinLines != 0) {
			t.Fatalf("bronze inherited the refused tenant's settings: %+v", row)
		}
	}
}
