package partition

import (
	"errors"
	"fmt"
	"sort"
)

// Scheme is a cache partitioning mechanism for a set-associative array.
// Implementations are not safe for concurrent use; the simulator is
// single-threaded per cache.
type Scheme interface {
	// Name identifies the scheme ("way", "set", "vantage", "none").
	Name() string
	// NumPartitions returns the number of hardware partitions.
	NumPartitions() int
	// Configure fixes the cache geometry. Must be called once before use.
	Configure(sets, assoc int) error
	// SetIndex maps an address hash to a set for an access by partition p.
	SetIndex(hashVal uint64, p int) int
	// Candidates appends to buf the way indices (0..assoc-1) eligible to
	// receive a fill by partition p into set, given each way's current
	// owner partition (-1 = free), and returns the result. An empty
	// result means the fill cannot be placed (the access bypasses).
	Candidates(set, p int, owners []int32, buf []int) []int
	// OnFill and OnEvict maintain occupancy accounting.
	OnFill(p int)
	OnEvict(p int)
	// SetTargets programs per-partition target sizes in lines;
	// len(sizes) must equal NumPartitions.
	SetTargets(sizes []int64) error
	// Occupancy and Target report per-partition state in lines.
	Occupancy(p int) int64
	Target(p int) int64
	// PartitionableFraction is the fraction of capacity whose allocation
	// the scheme strictly controls (1.0, or 0.9 for Vantage's managed
	// region).
	PartitionableFraction() float64
	// GranuleLines is the allocation granularity in lines.
	GranuleLines() int64
	// Reset clears occupancy (cache flush).
	Reset()
}

// Errors returned by schemes.
var (
	ErrNotConfigured = errors.New("partition: scheme not configured")
	ErrBadTargets    = errors.New("partition: bad target sizes")
)

// base carries the bookkeeping shared by all schemes.
type base struct {
	n       int
	sets    int
	assoc   int
	occ     []int64
	targets []int64
}

func newBase(n int) base {
	return base{n: n, occ: make([]int64, n), targets: make([]int64, n)}
}

func (b *base) NumPartitions() int { return b.n }

func (b *base) Configure(sets, assoc int) error {
	if sets <= 0 || assoc <= 0 {
		return fmt.Errorf("partition: bad geometry %d sets × %d ways", sets, assoc)
	}
	b.sets, b.assoc = sets, assoc
	return nil
}

func (b *base) OnFill(p int)  { b.occ[p]++ }
func (b *base) OnEvict(p int) { b.occ[p]-- }

func (b *base) Occupancy(p int) int64 { return b.occ[p] }
func (b *base) Target(p int) int64    { return b.targets[p] }

func (b *base) storeTargets(sizes []int64) error {
	if len(sizes) != b.n {
		return fmt.Errorf("%w: want %d sizes, got %d", ErrBadTargets, b.n, len(sizes))
	}
	for i, s := range sizes {
		if s < 0 {
			return fmt.Errorf("%w: partition %d size %d", ErrBadTargets, i, s)
		}
	}
	copy(b.targets, sizes)
	return nil
}

func (b *base) Reset() {
	for i := range b.occ {
		b.occ[i] = 0
	}
}

// allWays appends 0..assoc-1 to buf.
func allWays(assoc int, buf []int) []int {
	for w := 0; w < assoc; w++ {
		buf = append(buf, w)
	}
	return buf
}

// apportion distributes total units across parts proportionally to sizes
// using the largest-remainder (Hamilton) method, deterministically. The
// result always sums to total.
func apportion(sizes []int64, total int) []int {
	n := len(sizes)
	out := make([]int, n)
	var sum int64
	for _, s := range sizes {
		sum += s
	}
	if sum <= 0 {
		// Degenerate: spread evenly.
		for i := range out {
			out[i] = total / n
		}
		for i := 0; i < total%n; i++ {
			out[i]++
		}
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	used := 0
	for i, s := range sizes {
		exact := float64(s) / float64(sum) * float64(total)
		out[i] = int(exact)
		used += out[i]
		rems[i] = rem{i, exact - float64(out[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; used < total; i++ {
		out[rems[i%n].idx]++
		used++
	}
	return out
}
