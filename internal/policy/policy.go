package policy

import (
	"sync/atomic"

	"talus/internal/hash"
)

// AccessContext carries the side information some policies need: the line
// address being accessed (for PDP's reuse-distance sampler), the set (for
// set dueling and per-set aging), and the thread (logical partition)
// performing the access (for thread-aware dueling).
type AccessContext struct {
	Addr   uint64
	Set    int
	Thread int
}

// Policy is a replacement policy over a fixed geometry of sets×assoc lines.
type Policy interface {
	// Name identifies the policy in reports ("LRU", "DRRIP", ...).
	Name() string
	// Hit notifies that line idx was accessed and hit.
	Hit(idx int, ctx AccessContext)
	// Victim picks which of candidates (valid line indices) to evict, or
	// returns -1 to bypass the incoming line. candidates is never empty.
	Victim(candidates []int, ctx AccessContext) int
	// Fill notifies that line idx was just filled with a new line.
	Fill(idx int, ctx AccessContext)
	// Reset clears all replacement state (used when a cache is flushed).
	Reset()
}

// Factory constructs a policy for a cache with the given geometry.
// Policies needing randomness derive it deterministically from seed.
type Factory func(sets, assoc int, seed uint64) Policy

// ConcurrentHitter marks policies whose Hit bookkeeping can safely run
// without the cache's shard lock, concurrently with other Hits and with
// Victim/Fill running under the lock. cache.NewSetAssoc reads it once,
// at construction, to decide whether the array can answer lock-free hit
// probes. Policies that cannot offer this (e.g. the stack-moving RRIP
// variants) simply don't implement the interface, and the cache keeps
// taking the shard lock for their hits.
type ConcurrentHitter interface {
	ConcurrentHits()
}

// --- LRU -------------------------------------------------------------

// LRU is the least-recently-used policy: a global logical clock stamps
// every touch, and the victim is the candidate with the oldest stamp.
// Stamps are globally comparable, so LRU ranks victims correctly within
// any partition's candidate subset.
//
// Every clock and stamp operation is atomic, so Hit may run lock-free
// concurrently with locked Victim/Fill: a racing Victim sees each stamp
// either before or after its bump — at worst it evicts a line that
// became MRU during the race, which is a recency approximation, never a
// correctness issue.
type LRU struct {
	clock atomic.Uint64
	ts    []atomic.Uint64
}

// NewLRU returns an LRU policy for sets×assoc lines.
func NewLRU(sets, assoc int, _ uint64) *LRU {
	return &LRU{ts: make([]atomic.Uint64, sets*assoc)}
}

// LRUFactory adapts NewLRU to the Factory signature.
func LRUFactory(sets, assoc int, seed uint64) Policy { return NewLRU(sets, assoc, seed) }

// Name implements Policy.
func (p *LRU) Name() string { return "LRU" }

// ConcurrentHits implements ConcurrentHitter.
func (p *LRU) ConcurrentHits() {}

// Hit implements Policy: touching a line makes it most-recently used.
func (p *LRU) Hit(idx int, _ AccessContext) { p.ts[idx].Store(p.clock.Add(1)) }

// Fill implements Policy: new lines are inserted at MRU.
func (p *LRU) Fill(idx int, _ AccessContext) { p.ts[idx].Store(p.clock.Add(1)) }

// Victim implements Policy: evict the least recently used candidate.
func (p *LRU) Victim(candidates []int, _ AccessContext) int {
	best := candidates[0]
	bestTS := p.ts[best].Load()
	for _, idx := range candidates[1:] {
		if ts := p.ts[idx].Load(); ts < bestTS {
			best, bestTS = idx, ts
		}
	}
	return best
}

// Reset implements Policy.
func (p *LRU) Reset() {
	p.clock.Store(0)
	for i := range p.ts {
		p.ts[i].Store(0)
	}
}

// Timestamp exposes a line's LRU stamp; the DIP insertion variants and
// tests use it.
func (p *LRU) Timestamp(idx int) uint64 { return p.ts[idx].Load() }

// --- Random ----------------------------------------------------------

// Random evicts a uniformly random candidate. It serves as a baseline and
// as a stress test for the partitioning machinery (Assumption 2 holds for
// random replacement too).
type Random struct {
	rng *hash.SplitMix64
}

// NewRandom returns a Random policy seeded deterministically.
func NewRandom(_, _ int, seed uint64) *Random {
	return &Random{rng: hash.NewSplitMix64(seed)}
}

// RandomFactory adapts NewRandom to the Factory signature.
func RandomFactory(sets, assoc int, seed uint64) Policy { return NewRandom(sets, assoc, seed) }

// Name implements Policy.
func (p *Random) Name() string { return "Random" }

// ConcurrentHits implements ConcurrentHitter: hits keep no state, so
// they are trivially safe without the shard lock.
func (p *Random) ConcurrentHits() {}

// Hit implements Policy (random replacement keeps no per-line state).
func (p *Random) Hit(int, AccessContext) {}

// Fill implements Policy.
func (p *Random) Fill(int, AccessContext) {}

// Victim implements Policy.
func (p *Random) Victim(candidates []int, _ AccessContext) int {
	return candidates[p.rng.Intn(len(candidates))]
}

// Reset implements Policy.
func (p *Random) Reset() {}
