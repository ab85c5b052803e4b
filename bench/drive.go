package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"talus/internal/store"
)

// sampleEvery is the latency sampling stride of the in-process
// workloads: a time.Now pair costs a tenth of a 500 ns Get, so it is
// paid on one op in seven (coprime to every stream period). HTTP
// workloads time every request.
const sampleEvery = 7

// kv is the client's view of an in-process target: the store under
// test, or the bare backend when the harness measures itself.
type kv interface {
	Get(tenant, key string) ([]byte, bool, error)
	SetTTL(tenant, key string, value []byte, ttl time.Duration) (bool, error)
	Delete(tenant, key string) (bool, error)
}

// clientResult is what one closed-loop client saw.
type clientResult struct {
	ops, failed int64
	firstFail   string
	lat         []uint32 // sampled request latencies, ns

	// HTTP over several nodes: who served, and what a forwarded hop cost.
	served         []int64 // per node, by X-Talus-Node
	fwd, local     int64   // requests whose entry node was not / was the owner
	fwdNs, localNs int64
}

func (c *clientResult) fail(i int, o op, format string, args ...any) {
	c.failed++
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf("op %d (kind %d key %d): ", i, o.kind(), o.key()) + fmt.Sprintf(format, args...)
	}
}

// storeSpans names the span around each kind of in-process call.
var storeSpans = [...]spanName{opGet: spanStoreGet, opSet: spanStoreSet, opSetTTL: spanStoreSet, opDelete: spanStoreDelete}

// runStore drives one client's stream through an in-process target,
// one op at a time, checking every outcome against the model.
func runStore(target kv, in *inputs, m *model, ops []op, tick *tickSlot, tr *tracer) clientResult {
	res := clientResult{lat: make([]uint32, 0, len(ops)/sampleEvery+1)}
	scratch := make([]byte, 1<<16)
	tick0 := tick.n.Load()
	for i, o := range ops {
		tick.n.Store(tick0 + int64(i) + 1)
		kind, key := o.kind(), o.key()
		tenant, ks := in.tenant(key), in.keys[key]
		var val []byte // a Set's value is rendered before the clock starts
		var ver uint32
		var ttl time.Duration
		if kind == opSet || kind == opSetTTL {
			ver, val = m.nextVersion(key), scratch[:in.sizes[key]]
			fillValue(val, key, ver)
			if kind == opSetTTL {
				ttl = ttlSeconds * time.Second
			}
		}

		id := tr.beginReq(storeSpans[kind], int64(i))
		sample := i%sampleEvery == 0
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		var got []byte
		var err error
		switch kind {
		case opGet:
			got, _, err = target.Get(tenant, ks)
		case opSet, opSetTTL:
			_, err = target.SetTTL(tenant, ks, val, ttl)
		case opDelete:
			_, err = target.Delete(tenant, ks)
		}
		if sample {
			res.lat = append(res.lat, uint32(time.Since(t0)))
		}
		tr.end(id)

		switch kind {
		case opGet:
			if want, present := m.expect(key); present {
				if err != nil {
					res.fail(i, o, "Get: %v", err)
				} else if !checkValue(got, key, want, int(in.sizes[key])) {
					res.fail(i, o, "Get returned wrong bytes for version %d", want)
				}
			} else if !errors.Is(err, store.ErrNotFound) {
				res.fail(i, o, "Get of an absent key: err = %v, want ErrNotFound", err)
			}
		case opSet, opSetTTL:
			if err != nil {
				res.fail(i, o, "Set: %v", err)
			} else {
				m.set(key, ver)
			}
		case opDelete:
			if err != nil {
				res.fail(i, o, "Delete: %v", err)
			} else {
				m.delete(key)
			}
		}
	}
	res.ops = int64(len(ops))
	return res
}

// runHTTP drives one client's pre-rendered requests over its keep-alive
// connections, one per node, rotating the entry node request by request.
func runHTTP(conns []*httpConn, addrs []string, in *inputs, m *model, ops []op, reqs [][]byte, client int, tick *tickSlot, tr *tracer) clientResult {
	res := clientResult{lat: make([]uint32, 0, len(ops)), served: make([]int64, len(conns))}
	var rep httpReply
	tick0 := tick.n.Load()
	for i, o := range ops {
		tick.n.Store(tick0 + int64(i) + 1)
		entry := (i + client) % len(conns)
		id := tr.beginReq(spanRequest, int64(i))
		t0 := time.Now()
		err := conns[entry].roundTrip(reqs[i], &rep)
		d := time.Since(t0)
		tr.end(id)
		res.lat = append(res.lat, uint32(d))
		if err != nil {
			res.fail(i, o, "round trip: %v", err)
			continue
		}
		if len(conns) > 1 {
			owner := -1
			for n, a := range addrs {
				if string(rep.node) == a {
					owner = n
				}
			}
			if owner < 0 {
				res.fail(i, o, "X-Talus-Node %q is not a member", rep.node)
				continue
			}
			res.served[owner]++
			if owner == entry {
				res.local++
				res.localNs += int64(d)
			} else {
				res.fwd++
				res.fwdNs += int64(d)
			}
		}
		checkReply(&res, i, o, rep.status, rep.body, in, m)
	}
	res.ops = int64(len(ops))
	return res
}

// checkReply checks one HTTP reply against the model and advances it.
func checkReply(res *clientResult, i int, o op, status int, body []byte, in *inputs, m *model) {
	key := o.key()
	switch o.kind() {
	case opGet:
		if want, present := m.expect(key); present {
			if status != 200 {
				res.fail(i, o, "GET: status %d: %s", status, bytes.TrimSpace(body))
			} else if !checkValue(body, key, want, int(in.sizes[key])) {
				res.fail(i, o, "GET returned wrong bytes for version %d", want)
			}
		} else if status != 404 {
			res.fail(i, o, "GET of an absent key: status %d, want 404", status)
		}
	case opSet, opSetTTL:
		if status != 204 {
			res.fail(i, o, "PUT: status %d: %s", status, bytes.TrimSpace(body))
		} else {
			m.set(key, m.nextVersion(key))
		}
	case opDelete:
		// The handler answers 404 when no cached copy existed, whatever
		// the backend held: either status is a completed delete.
		if status != 204 && status != 404 {
			res.fail(i, o, "DELETE: status %d: %s", status, bytes.TrimSpace(body))
		} else {
			m.delete(key)
		}
	}
}

// pass is one measured pass of every client over a rig.
type pass struct {
	clientResult               // summed over clients; lat merged and sorted
	wall, cpu    time.Duration // of the region between the clients' start and their end
	mallocs      uint64
	gets         int64 // Get requests in the streams
	backendGets  int64 // of which the store passed on to the backend
}

func (p *pass) opsPerSec() float64 { return float64(p.ops) / p.wall.Seconds() }

// hitRatio is the user-visible hit ratio: the share of Gets answered
// without a call to Backend.Get.
func (p *pass) hitRatio() float64 {
	if p.gets == 0 {
		return 0
	}
	return 1 - float64(p.backendGets)/float64(p.gets)
}

// percentile reads the q-quantile of the sorted samples, in µs. The
// clock counts whole nanoseconds and a sub-microsecond median sits on a
// run of thousands of equal samples, so the quantile is interpolated
// through its run of ties: the samples reading v are taken as spread
// evenly over [v − ½, v + ½) ns.
func (p *pass) percentile(q float64) float64 {
	if len(p.lat) == 0 {
		return 0
	}
	rank := int(q * float64(len(p.lat)-1))
	v := p.lat[rank]
	lo, _ := slices.BinarySearch(p.lat, v)
	hi, _ := slices.BinarySearch(p.lat, v+1)
	return (float64(v) - 0.5 + (float64(rank-lo)+0.5)/float64(hi-lo)) / 1e3
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives streams (one per client) against the rig and measures the
// region: wall and CPU time, mallocs, backend reads. target overrides
// the in-process store (nil: the rig's own); tr traces a one-client pass.
func (r *rig) run(streams [][]op, reqs [][][]byte, target kv, tr *tracer) (pass, error) {
	clients := len(streams)
	conns := make([][]*httpConn, clients)
	defer func() {
		for _, cs := range conns {
			for _, c := range cs {
				c.close()
			}
		}
	}()
	if r.spec.http {
		for c := range conns {
			for _, a := range r.addrs {
				h, err := dialHTTP(a)
				if err != nil {
					return pass{}, err
				}
				conns[c] = append(conns[c], h)
			}
		}
	} else if target == nil {
		target = r.stores[0]
	}

	var p pass
	for _, s := range streams {
		for _, o := range s {
			if o.kind() == opGet {
				p.gets++
			}
		}
	}
	results := make([]clientResult, clients)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(clients)
	done.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer done.Done()
			ready.Done()
			<-start
			if r.spec.http {
				results[c] = runHTTP(conns[c], r.addrs, r.in, r.model, streams[c], reqs[c], c, &r.ticks[c], tr)
			} else {
				results[c] = runStore(target, r.in, r.model, streams[c], &r.ticks[c], tr)
			}
		}(c)
	}
	ready.Wait()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gets0 := r.be.gets.Load()
	cpu0 := cpuTime()
	t0 := time.Now()
	close(start)
	done.Wait()
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.backendGets = r.be.gets.Load() - gets0
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs

	p.served = make([]int64, len(r.addrs))
	for _, res := range results {
		p.ops += res.ops
		p.failed += res.failed
		if p.firstFail == "" {
			p.firstFail = res.firstFail
		}
		p.lat = append(p.lat, res.lat...)
		for n, v := range res.served {
			p.served[n] += v
		}
		p.fwd += res.fwd
		p.local += res.local
		p.fwdNs += res.fwdNs
		p.localNs += res.localNs
	}
	slices.Sort(p.lat)
	return p, nil
}
