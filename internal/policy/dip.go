// DIP: Dynamic Insertion Policy (Qureshi et al., ISCA 2007).
//
// DIP duels LRU against BIP (Bimodal Insertion Policy). BIP inserts most
// lines at the LRU position — so a thrashing working set streams through
// one way instead of flushing the cache — and promotes to MRU only on a
// hit, inserting at MRU for 1 in 32 fills (ε = 1/32) to adapt to phase
// changes. Set dueling picks the better constituent, exactly as in DRRIP.

package policy

// DIP implements the dynamic insertion policy over an LRU timestamp core.
type DIP struct {
	lru     *LRU
	sets    int
	assoc   int
	fillCnt uint64
	psel    int32
	pselMax int32
}

// NewDIP returns a DIP policy for sets×assoc lines.
func NewDIP(sets, assoc int, seed uint64) *DIP {
	p := &DIP{
		lru:     NewLRU(sets, assoc, seed),
		sets:    sets,
		assoc:   assoc,
		pselMax: 1023,
	}
	p.Reset()
	return p
}

// DIPFactory adapts NewDIP to the Factory signature.
func DIPFactory(sets, assoc int, seed uint64) Policy { return NewDIP(sets, assoc, seed) }

// Name implements Policy.
func (p *DIP) Name() string { return "DIP" }

// leaderKind mirrors DRRIP's leader-set spacing: +1 = LRU leader,
// -1 = BIP leader, 0 = follower.
func (p *DIP) leaderKind(set int) int {
	switch set % drripLeaderPeriod {
	case 0:
		return +1
	case drripLeaderPeriod / 2:
		return -1
	}
	return 0
}

// Hit implements Policy: hits always promote to MRU (both constituents).
func (p *DIP) Hit(idx int, ctx AccessContext) { p.lru.Hit(idx, ctx) }

// Victim implements Policy: both constituents evict LRU.
func (p *DIP) Victim(candidates []int, ctx AccessContext) int {
	return p.lru.Victim(candidates, ctx)
}

// Fill implements Policy: leaders insert per their constituent and vote;
// followers insert per the winner. MRU insertion stamps the line newest;
// LRU insertion stamps it older than everything else in its set, so it is
// the next victim unless re-referenced first.
func (p *DIP) Fill(idx int, ctx AccessContext) {
	useBIP := false
	switch p.leaderKind(ctx.Set) {
	case +1: // LRU leader missed
		if p.psel < p.pselMax {
			p.psel++
		}
	case -1: // BIP leader missed
		if p.psel > 0 {
			p.psel--
		}
		useBIP = true
	default:
		useBIP = p.psel > p.pselMax/2
	}
	if useBIP {
		p.fillCnt++
		if p.fillCnt%bipEpsilonDenom == 0 {
			p.lru.Fill(idx, ctx) // occasional MRU insertion
		} else {
			p.insertAtLRU(idx, ctx.Set)
		}
	} else {
		p.lru.Fill(idx, ctx)
	}
}

// insertAtLRU stamps idx strictly older than every other line in its set.
func (p *DIP) insertAtLRU(idx, set int) {
	base := set * p.assoc
	minTS := ^uint64(0)
	for w := 0; w < p.assoc; w++ {
		li := base + w
		if li == idx {
			continue
		}
		if ts := p.lru.Timestamp(li); ts < minTS {
			minTS = ts
		}
	}
	if minTS == 0 {
		minTS = 1 // keep stamps non-negative; ties at 0 behave as oldest
	}
	p.lru.ts[idx].Store(minTS - 1)
}

// Reset implements Policy.
func (p *DIP) Reset() {
	p.lru.Reset()
	p.fillCnt = 0
	p.psel = p.pselMax / 2
}

// PSEL exposes the policy-selection counter (tests).
func (p *DIP) PSEL() int32 { return p.psel }
