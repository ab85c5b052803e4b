package adaptive

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"talus/internal/alloc"
	"talus/internal/core"
	"talus/internal/curve"
)

// DefaultEpochAccesses is the default epoch length: one reconfiguration
// per 2^20 observed accesses, the software analogue of the paper's 10 ms
// hardware interval (a few accesses per thousand instructions at GHz
// rates lands within an order of magnitude of this).
const DefaultEpochAccesses = 1 << 20

// Config parameterizes the control loop.
type Config struct {
	// EpochAccesses is the reconfiguration interval in observed accesses
	// (all partitions combined); 0 selects DefaultEpochAccesses.
	EpochAccesses int64
	// EpochInterval, when positive, adds a wall-clock epoch trigger: a
	// background ticker drives the same TryLock epoch step the access
	// clock does, so lightly loaded caches still reconfigure on time
	// (the access-count trigger alone waits for EpochAccesses, which an
	// idle serving cache may take minutes to reach). Zero keeps the
	// control loop purely access-driven with no background goroutine.
	// Callers that set this must Close the cache to stop the ticker.
	EpochInterval time.Duration
	// Seed derives the monitors' hash functions.
	Seed uint64
}

func (c *Config) defaults() {
	if c.EpochAccesses <= 0 {
		c.EpochAccesses = DefaultEpochAccesses
	}
}

// ControllerState is a snapshot of the control loop's tunables and its
// most recent measurements, served at /v1/control.
type ControllerState struct {
	// Epochs counts epoch steps that measured traffic (no-op epochs on
	// an idle cache are skipped entirely and not counted).
	Epochs int `json:"epochs"`
	// Churn is the last measuring epoch's access-share-weighted
	// normalized L1 distance between successive per-partition curves
	// (see curve.Distance); the first measuring epoch reads up to 1,
	// since a first curve moved by 1. A reported signal: nothing in the
	// loop acts on it.
	Churn float64 `json:"churn"`
	// EpochAccesses is the configured epoch budget in accesses.
	EpochAccesses int64 `json:"epoch_accesses"`
	// EpochInterval is the configured wall-clock trigger interval (0
	// without a ticker).
	EpochInterval time.Duration `json:"epoch_interval_ns"`
	// Allocations is the most recent per-partition allocation in lines.
	Allocations []int64 `json:"allocations"`
	// Weights is the per-partition objective weight vector (nil =
	// uniform).
	Weights []float64 `json:"weights,omitempty"`
	// LastError is the most recent epoch step's allocate or reconfigure
	// failure (the allocation then stands unchanged); empty after a good
	// step.
	LastError string `json:"last_error,omitempty"`
}

// Cache is the adaptive Talus runtime. Construct with New over a
// ShadowedCache you assembled, or with Build (talus.New) from names.
type Cache struct {
	sc  *core.ShadowedCache
	cfg Config
	n   int

	loop *Loop

	accTotal  atomic.Int64 // accesses observed since construction
	nextEpoch atomic.Int64 // accTotal threshold triggering the next epoch

	epochMu    sync.Mutex // serializes the epoch step and guards loop's curves and the fields below
	epochs     int
	lastAllocs []int64
	lastErr    error

	// weights is threaded into each epoch's Request. It stays nil until
	// SetWeight materializes it, so the uniform configuration builds the
	// exact plain Request of the legacy path.
	weights []float64

	ticker    *time.Ticker  // non-nil iff EpochInterval > 0
	tickStop  chan struct{} // nil without EpochInterval
	tickDone  chan struct{}
	closeOnce sync.Once
}

// New wraps an already-configured ShadowedCache in the control loop and
// programs an initial fair split (ρ = 1 everywhere: plain behaviour until
// the first epoch has measured curves). The inner cache must be safe for
// concurrent use if the Cache will be.
func New(sc *core.ShadowedCache, cfg Config) (*Cache, error) {
	cfg.defaults()
	n := sc.NumLogical()
	budget := sc.Inner().PartitionableCapacity()
	loop, err := NewLoop(n, budget, cfg.Seed)
	if err != nil {
		return nil, err
	}
	a := &Cache{
		sc:         sc,
		cfg:        cfg,
		n:          n,
		loop:       loop,
		lastAllocs: make([]int64, n),
	}
	fair, err := alloc.Fair(n, budget, max(budget/allocGranules, 1))
	if err != nil {
		return nil, fmt.Errorf("adaptive: initial fair split: %w", err)
	}
	// Nil curves make every partition fall back to the degenerate single-
	// shadow configuration: a fairly partitioned, Talus-less cache.
	if err := a.sc.Reconfigure(fair, make([]*curve.Curve, n)); err != nil {
		return nil, fmt.Errorf("adaptive: initial reconfigure: %w", err)
	}
	copy(a.lastAllocs, fair)
	a.nextEpoch.Store(cfg.EpochAccesses)
	if cfg.EpochInterval > 0 {
		a.ticker = time.NewTicker(cfg.EpochInterval)
		a.tickStop = make(chan struct{})
		a.tickDone = make(chan struct{})
		go a.tickLoop()
	}
	return a, nil
}

// tickLoop is the wall-clock epoch trigger: every tick it attempts the
// same TryLock epoch step the access clock fires, so reconfiguration
// happens on time even when traffic is too light to reach the epoch
// budget. Runs until Close.
func (a *Cache) tickLoop() {
	defer close(a.tickDone)
	defer a.ticker.Stop()
	for {
		select {
		case <-a.tickStop:
			return
		case <-a.ticker.C:
			if !a.epochMu.TryLock() {
				continue // an access-driven epoch is already running
			}
			a.runEpochLocked()
			a.nextEpoch.Store(a.accTotal.Load() + a.cfg.EpochAccesses)
			a.epochMu.Unlock()
		}
	}
}

// Close stops the wall-clock epoch ticker (waiting for any in-flight
// tick to finish) and is a no-op for caches built without EpochInterval.
// Safe to call multiple times; the datapath remains usable afterwards,
// driven by the access clock alone.
func (a *Cache) Close() error {
	if a.tickStop != nil {
		a.closeOnce.Do(func() {
			close(a.tickStop)
			<-a.tickDone
		})
	}
	return nil
}

// checkPartition validates a caller-supplied partition index once, at
// the API boundary: an out-of-range p would otherwise panic deep inside
// monSlot indexing with a bare bounds error.
func (a *Cache) checkPartition(p int) {
	if p < 0 || p >= a.n {
		panic(fmt.Sprintf("adaptive: partition %d out of range [0,%d)", p, a.n))
	}
}

// Access observes one access on partition p's monitor, routes it through
// the Talus datapath, and reports a hit. Crossing an epoch boundary
// triggers reconfiguration on the calling goroutine. p must be in
// [0, NumLogical()); anything else panics with a descriptive message.
func (a *Cache) Access(addr uint64, p int) bool {
	a.checkPartition(p)
	a.loop.Observe(addr, p)
	hit := a.sc.Access(addr, p)
	a.afterAccesses(1)
	return hit
}

// afterAccesses advances the epoch clock and fires the epoch step when
// the interval has elapsed. TryLock keeps the datapath wait-free: if a
// reconfiguration is already running, this access's contribution is
// simply part of the next epoch.
func (a *Cache) afterAccesses(k int64) {
	if a.accTotal.Add(k) < a.nextEpoch.Load() {
		return
	}
	if !a.epochMu.TryLock() {
		return
	}
	defer a.epochMu.Unlock()
	if a.accTotal.Load() < a.nextEpoch.Load() {
		return // another goroutine already ran this epoch
	}
	a.runEpochLocked()
	a.nextEpoch.Store(a.accTotal.Load() + a.cfg.EpochAccesses)
}

// ForceEpoch runs one epoch step immediately regardless of the access
// clock (tests; final-report flushes) and returns its outcome.
func (a *Cache) ForceEpoch() error {
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	a.runEpochLocked()
	a.nextEpoch.Store(a.accTotal.Load() + a.cfg.EpochAccesses)
	return a.lastErr
}

// runEpochLocked is the control loop body, labeled for profiling so
// `make profile-serving` attributes reconfiguration cost separately from
// the datapath. Caller holds epochMu.
func (a *Cache) runEpochLocked() {
	pprof.Do(context.Background(), pprof.Labels("talus", "epoch-step"), func(context.Context) {
		a.epochBody()
	})
}

// epochBody is one Loop step, hill climbing on the hulls (optimal there
// for any weights: alloc.TestWeightedAllocatorsAgreeOnHulls), then the
// Talus reconfiguration. An idle epoch counts nothing, so
// ControllerState.LastError keeps reporting the last real epoch's
// outcome. Caller holds epochMu.
func (a *Cache) epochBody() {
	allocs, curves, ok, err := a.loop.Step(alloc.HillClimbAllocator, true, alloc.Request{
		Total:   a.sc.Inner().PartitionableCapacity(),
		Weights: a.weights,
	})
	if !ok {
		return
	}
	// Reconfigure from the raw curves, not the hulls: Configure's
	// flat-gain check needs the raw curve to collapse already-convex
	// partitions to a single shadow partition (interpolating there pays
	// sampling noise for nothing).
	if err != nil {
		err = fmt.Errorf("adaptive: epoch %d allocate: %w", a.epochs, err)
	} else if err = a.sc.Reconfigure(allocs, curves); err != nil {
		err = fmt.Errorf("adaptive: epoch %d reconfigure: %w", a.epochs, err)
	} else {
		copy(a.lastAllocs, allocs)
	}
	a.lastErr = err
	a.epochs++
}

// SetWeight sets partition p's objective weight for subsequent epochs
// (see alloc.Request.Weights); CheckWeight refuses a bad one. The
// first call materializes the weight vector (uniform 1s); until then
// the epoch Request carries nil weights — the exact legacy objective.
func (a *Cache) SetWeight(p int, w float64) error {
	a.checkPartition(p)
	if err := CheckWeight(w); err != nil {
		return err
	}
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	if a.weights == nil {
		a.weights = make([]float64, a.n)
		for i := range a.weights {
			a.weights[i] = 1
		}
	}
	a.weights[p] = w
	return nil
}

// ErrBadWeight reports an objective weight the allocator would refuse
// on every epoch, freezing the allocation where it stood.
var ErrBadWeight = errors.New("adaptive: bad weight")

// CheckWeight refuses a weight that is negative, NaN or infinite with
// ErrBadWeight: the one check every way a weight gets in runs.
func CheckWeight(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("%w %g (need finite, non-negative)", ErrBadWeight, w)
	}
	return nil
}

// Controller returns a snapshot of the control loop's tunables and its
// most recent measurements.
func (a *Cache) Controller() ControllerState {
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	st := ControllerState{
		Epochs:        a.epochs,
		Churn:         a.loop.Churn(),
		EpochAccesses: a.cfg.EpochAccesses,
		EpochInterval: max(a.cfg.EpochInterval, 0),
		Allocations:   append([]int64(nil), a.lastAllocs...),
	}
	if a.weights != nil {
		st.Weights = append([]float64(nil), a.weights...)
	}
	if a.lastErr != nil {
		st.LastError = a.lastErr.Error()
	}
	return st
}

// SetEvictHook installs fn to be called once per line the underlying
// cache evicts, with the line's logical partition and address, and
// reports whether the full cache stack supports eviction notification
// (every layer down to the arrays must). The hook fires on the
// accessing goroutine with a shard lock held: it must be fast and must
// not re-enter the cache. Install it before traffic flows; installing
// or clearing concurrently with accesses is racy.
func (a *Cache) SetEvictHook(fn func(part int, addr uint64)) bool {
	return a.sc.SetEvictHook(fn)
}

// Invalidate drops logical partition p's line for addr, if resident,
// and reports whether one was dropped. Not an access: no monitor
// observation, no stats, no epoch progress, and the eviction hook does
// not fire. Returns false when the underlying cache does not support
// invalidation. p must be in [0, NumLogical()).
func (a *Cache) Invalidate(addr uint64, p int) bool {
	a.checkPartition(p)
	return a.sc.Invalidate(addr, p)
}

// Epochs returns how many epoch steps have measured traffic (idle
// no-op steps are skipped and not counted).
func (a *Cache) Epochs() int {
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	return a.epochs
}

// Allocations returns the most recent per-partition allocation in lines.
func (a *Cache) Allocations() []int64 {
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	out := make([]int64, len(a.lastAllocs))
	copy(out, a.lastAllocs)
	return out
}

// Curve returns partition p's most recently extracted miss curve (misses
// per kilo-access, EWMA over recent epochs), or nil before the first
// epoch with traffic. p must be in [0, NumLogical()).
func (a *Cache) Curve(p int) *curve.Curve {
	a.checkPartition(p)
	a.epochMu.Lock()
	defer a.epochMu.Unlock()
	return a.loop.Curve(p)
}

// Config returns partition p's current Talus configuration. p must be
// in [0, NumLogical()).
func (a *Cache) Config(p int) core.Config {
	a.checkPartition(p)
	return a.sc.Config(p)
}

// NumLogical returns the number of software-visible partitions.
func (a *Cache) NumLogical() int { return a.n }

// Shadowed exposes the wrapped Talus runtime (shadow sizes, inner cache).
func (a *Cache) Shadowed() *core.ShadowedCache { return a.sc }

// Allocator returns the allocation policy every epoch runs:
// alloc.HillClimbAllocator, always.
func (a *Cache) Allocator() alloc.Allocator { return alloc.HillClimbAllocator }
