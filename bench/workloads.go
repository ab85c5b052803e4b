package main

import (
	"fmt"

	"talus/internal/hash"
	"talus/internal/workload"
)

// Fixed parameters of the program under test. None of them is derived
// from -seed or from a clock: the seed shapes the inputs only.
const (
	cacheSeed     = 0x7A105 // seeds the cache stack's hashes on every node
	epochAccesses = 1 << 18 // access-count epochs only: no EpochInterval, no self-tuning
	numShards     = 2
	ringSeed      = 42
	ringVNodes    = 64
	ttlSeconds    = 1 // per-entry TTL on the TTL'd Sets: 1 logical second = 10^6 ops of the logical clock
)

// Request kinds, packed with a key index into an op.
const (
	opGet = iota
	opSet
	opSetTTL
	opDelete
)

// op is one request: kind in the top 4 bits, key index below.
type op uint32

const opKeyBits = 28

func mkOp(kind int, key uint32) op { return op(kind)<<opKeyBits | op(key) }
func (o op) kind() int             { return int(o >> opKeyBits) }
func (o op) key() uint32           { return uint32(o) & (1<<opKeyBits - 1) }

// picker draws one client's next request from the workload's
// distribution. Clients own disjoint key sets, so each client's
// sequential model of its own keys is exact.
type picker func(rng *hash.SplitMix64) (kind int, key uint32)

// spec is one workload: the store it runs against, how it is reached,
// and the request stream. opsPerSec and warmOps are calibration
// constants, measured once on a 2-vCPU box and then frozen: a run's op
// count is opsPerSec × -seconds (BENCHMARK.json's run_seconds), never a
// function of the wall clock.
type spec struct {
	name string
	why  string

	http    bool // driven over loopback HTTP (else in-process store calls)
	nodes   int  // 1, or 3 behind a consistent-hash ring
	clients int

	lines      int64 // cache capacity per node, in lines
	maxBytes   int64 // value-byte cap per node (0 = lines bind)
	tenants    []string
	static     bool     // tenants pre-declared and closed (else auto-registered by the first Set)
	tenantKeys []uint32 // keys per tenant; key indices are global, tenant by tenant
	valueSize  func(key uint32) int

	opsPerSec int // timed ops per -seconds unit, all clients
	warmOps   int // warm-up ops, all clients (≥ 2 s on the calibration box)

	newPicker func(client, clients int) picker
}

func (s *spec) numKeys() int {
	n := 0
	for _, k := range s.tenantKeys {
		n += int(k)
	}
	return n
}

// with returns a copy of s reached another way: the ladder replays one
// workload's requests against each entry point in turn.
func (s *spec) with(http bool, nodes int) *spec {
	c := *s
	c.http, c.nodes = http, nodes
	return &c
}

func fixedSize(n int) func(uint32) int { return func(uint32) int { return n } }

// ownKey maps a client-local slot to a key index the client owns: keys
// are dealt round-robin, so every client sees every tenant.
func ownKey(slot uint64, client, clients int) uint32 {
	return uint32(slot)*uint32(clients) + uint32(client)
}

var specs = []*spec{
	{
		name:  "store-cliff",
		why:   "scan tenant 1.46x its fair share beside a zipf tenant: shared LRU sits below the cliff, Talus must remove it (store does all the work, 1 client, exact counts)",
		nodes: 1, clients: 1,
		lines:      32768,
		tenants:    []string{"scan", "zipf"},
		static:     true,
		tenantKeys: []uint32{24000, 65536},
		valueSize:  fixedSize(64),
		opsPerSec:  1_600_000,
		warmOps:    3_400_000,
		newPicker: func(client, clients int) picker {
			z := workload.NewZipf(65536, 0.9)
			var pos uint32
			return func(rng *hash.SplitMix64) (int, uint32) {
				if rng.Next()&1 == 0 {
					k := pos
					if pos++; pos == 24000 {
						pos = 0
					}
					return opGet, k
				}
				return opGet, 24000 + uint32(z.Next(rng))
			}
		},
	},
	{
		name:  "store-churn",
		why:   "writes, deletes, TTLs and a byte cap under a rotating hot set with 2 contending clients: a read-path gain that costs writes or memory shows here",
		nodes: 1, clients: 2,
		lines:      32768,
		maxBytes:   8 << 20,
		tenants:    []string{"t0", "t1", "t2", "t3"},
		tenantKeys: []uint32{65536, 65536, 65536, 65536},
		valueSize:  func(key uint32) int { return 64 + 8*int(hash.Mix64(uint64(key))%121) },
		opsPerSec:  600_000,
		warmOps:    1_400_000,
		newPicker: func(client, clients int) picker {
			d, err := workload.NewDiurnal(int64(262144/clients), 0.9, 1<<17, 2048)
			if err != nil {
				panic(err) // constant arguments
			}
			return func(rng *hash.SplitMix64) (int, uint32) {
				key := ownKey(d.Next(rng), client, clients)
				switch u := rng.Uint64n(100); {
				case u < 60:
					return opGet, key
				case u < 87:
					return opSet, key
				case u < 90:
					return opSetTTL, key
				default:
					return opDelete, key
				}
			}
		},
	},
	{
		name: "http-hot",
		why:  "a resident working set behind net/http on loopback: handler and socket do the work, the store is ~1% of a request, so a store change must show no change here",
		http: true, nodes: 1, clients: 2,
		lines:      32768,
		tenants:    []string{"hot"},
		tenantKeys: []uint32{4096},
		valueSize:  fixedSize(128),
		opsPerSec:  64_000,
		warmOps:    150_000,
		newPicker: func(client, clients int) picker {
			return func(rng *hash.SplitMix64) (int, uint32) {
				key := ownKey(rng.Uint64n(uint64(4096/clients)), client, clients)
				if rng.Uint64n(100) < 5 {
					return opSet, key
				}
				return opGet, key
			}
		},
	},
	{
		name: "cluster-hop",
		why:  "3 ring nodes, entry node rotated so ~2/3 of requests take one proxied hop: isolates cluster.Forward and the second handler pass against http-hot",
		http: true, nodes: 3, clients: 2,
		lines:      8192,
		tenants:    []string{"fleet"},
		tenantKeys: []uint32{16384},
		valueSize:  fixedSize(128),
		opsPerSec:  29_000,
		warmOps:    68_000,
		newPicker: func(client, clients int) picker {
			z := workload.NewZipf(int64(16384/clients), 0.9)
			return func(rng *hash.SplitMix64) (int, uint32) {
				key := ownKey(z.Next(rng), client, clients)
				if rng.Uint64n(100) < 5 {
					return opSet, key
				}
				return opGet, key
			}
		},
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
