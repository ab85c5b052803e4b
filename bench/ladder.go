package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"talus"
	"talus/internal/adaptive"
	"talus/internal/alloc"
	"talus/internal/cache"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/hull"
	"talus/internal/monitor"
	"talus/internal/oracle"
	"talus/internal/sim"
	"talus/internal/store"
)

// recording is the store.Recorder of the traced run: the exact
// (partition, address) stream node 0's cache stack saw, from the first
// preload Set on. mark is where the traced pass began; what precedes it
// only warms the replays.
type recording struct {
	parts []uint8
	addrs []uint64
	mark  int
}

func (r *recording) Append(p int, addr uint64) error {
	r.parts = append(r.parts, uint8(p))
	r.addrs = append(r.addrs, addr)
	return nil
}

// line is the address the cache stack sees: the store ORs the tenant's
// partition space onto the recorded 48-bit key address.
func (r *recording) line(i int) uint64 { return r.addrs[i] | sim.AppSpace(int(r.parts[i])) }

// layerMetrics accumulates the per-layer metrics of a traced run.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// storeCounters sums the tenants' counters over every node.
func storeCounters(stores []*store.Store) (t store.TenantStats) {
	for _, st := range stores {
		for _, ts := range st.StatsAll() {
			t.CacheHits += ts.CacheHits
			t.CacheMisses += ts.CacheMisses
			t.Evictions += ts.Evictions
			t.AdmitDrops += ts.AdmitDrops
			t.Expirations += ts.Expirations
			t.BackendSets += ts.BackendSets
			t.Keys += ts.Keys
		}
	}
	return t
}

// heapAlloc is the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runTraced is the traced run: one client, a quarter of the op count,
// spans around everything the bench can see from outside the program,
// then the ladder. It reports the per-layer metrics only; end-to-end
// metrics always come from untraced runs.
func runTraced(cfg config) (result, error) {
	s := cfg.spec
	warmOps, timedOps := cfg.warmOps/2, cfg.timedOps/4
	stamp := runStamp(cfg, 1, warmOps, timedOps)
	printStamp(stamp)
	m := layerMetrics{}

	t0 := time.Now()
	in := generate(s, cfg.seed, 1, warmOps, timedOps)
	m.set("bench.gen_s", time.Since(t0).Seconds(), "s")

	// The same pass untraced: what tracing costs is the difference.
	base, err := prepare(cfg, s, in, in.warm, in.timed, rigOpts{})
	if err != nil {
		return result{}, err
	}
	plain, err := base.rig.run(in.timed, base.reqs, nil, nil)
	if cerr := base.rig.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	base = nil

	tr := newTracer()
	rec := &recording{}
	p, err := prepare(cfg, s, in, in.warm, in.timed, rigOpts{tr: tr, rec: rec})
	if err != nil {
		return result{}, err
	}
	defer p.rig.close() // again after the explicit close below: harmless
	rec.mark = len(rec.addrs)
	before := storeCounters(p.rig.stores)
	tr.on.Store(true)
	traced, err := p.rig.run(in.timed, p.reqs, nil, tr)
	if err != nil {
		return result{}, err
	}
	tr.on.Store(false)
	if err := p.rig.stores[0].SetRecorder(nil); err != nil {
		return result{}, err
	}
	after := storeCounters(p.rig.stores)
	agg := tr.take()

	ops := float64(traced.ops)
	kops := ops / 1000
	m.set("bench.trace_overhead", 1-traced.opsPerSec()/plain.opsPerSec(), "ratio")
	m.set("bench.lat_p99_us", plain.percentile(0.99), "us")
	m.set("oracle.measured_hit_ratio", traced.hitRatio(), "ratio")
	m.set("store.backend_us", float64(agg[spanBackend].total)/ops/1e3, "us")
	var epochs int
	for _, st := range p.rig.stores {
		epochs += st.Cache().Epochs()
	}
	m.set("adaptive.epochs", float64(epochs), "count")
	acc := float64(after.CacheHits - before.CacheHits + after.CacheMisses - before.CacheMisses)
	m.set("store.line_hit_ratio", float64(after.CacheHits-before.CacheHits)/math.Max(acc, 1), "ratio")
	m.set("store.evictions_per_kop", float64(after.Evictions-before.Evictions)/kops, "1/kop")
	m.set("store.admit_drops_per_kop", float64(after.AdmitDrops-before.AdmitDrops)/kops, "1/kop")
	m.set("store.expirations_per_kop", float64(after.Expirations-before.Expirations)/kops, "1/kop")
	m.set("store.backend_sets_per_kop", float64(after.BackendSets-before.BackendSets)/kops, "1/kop")

	oracleMetrics(s, rec, p.rig.stores[0], m)
	// The ladder's own fleets need the ring's ports: this one is done.
	if err := p.rig.close(); err != nil {
		return result{}, err
	}
	tr.on.Store(true)
	if err := ladder(cfg, in, rec, p.rig.stores[0].Cache(), tr, m); err != nil {
		return result{}, err
	}

	flat := make(map[string]float64, len(m))
	for name, v := range m {
		flat[name] = v.Value
	}
	if err := tr.write(cfg.outDir, s.name, stamp, flat); err != nil {
		return result{}, err
	}
	printMetrics(m)
	if traced.firstFail != "" {
		fmt.Println("first failure:", traced.firstFail)
	}
	fmt.Printf("traced pass: %.3f s wall, %d ops (untraced: %.3f s), %d accesses recorded on node 0, spans in %s/trace-%s.json\n",
		traced.wall.Seconds(), traced.ops, plain.wall.Seconds(), len(rec.addrs)-rec.mark, cfg.outDir, s.name)
	failed := traced.failed + plain.failed + p.warm.failed
	return result{Correct: failed == 0, Attempted: traced.ops, Failed: traced.failed, Metrics: m}, nil
}

// oracleMetrics runs the exact Mattson stack simulator over node 0's
// recorded stream: what shared LRU would have hit at this capacity, what
// the hulls plus an optimal split promise, and how far the store's
// monitored curves are from the exact ones. The stack is warmed with the
// pre-mark stream; only the traced pass is counted.
func oracleMetrics(s *spec, rec *recording, st *store.Store, m layerMetrics) {
	const maxAccesses = 1 << 23
	parts := len(s.tenants)
	shared := oracle.NewStackSim()
	per := make([]*oracle.StackSim, parts)
	for p := range per {
		per[p] = oracle.NewStackSim()
	}
	end := min(len(rec.addrs), rec.mark+maxAccesses)
	feed := func(from, to int) {
		for i := from; i < to; i++ {
			shared.Access(rec.line(i))
			per[rec.parts[i]].Access(rec.addrs[i])
		}
	}
	feed(0, rec.mark)
	sizes := oracle.Grid(s.lines, 64)
	sharedBefore := shared.Misses(s.lines)
	perBefore := make([][]int64, parts)
	accBefore := make([]int64, parts)
	for p, sim := range per {
		accBefore[p] = sim.Accesses()
		for _, size := range sizes {
			perBefore[p] = append(perBefore[p], sim.Misses(size))
		}
	}
	feed(rec.mark, end)
	n := float64(end - rec.mark)
	if n == 0 {
		n = 1
	}
	m.set("oracle.lru_hit_ratio", 1-float64(shared.Misses(s.lines)-sharedBefore)/n, "ratio")

	// Exact per-tenant curves in the store's own unit: misses per
	// kilo-access of the whole stream.
	exact := make([]*curve.Curve, parts)
	for p, sim := range per {
		pts := []curve.Point{{Size: 0, MPKI: float64(sim.Accesses()-accBefore[p]) / n * 1000}}
		for j, size := range sizes {
			pts = append(pts, curve.Point{Size: float64(size), MPKI: float64(sim.Misses(size)-perBefore[p][j]) / n * 1000})
		}
		exact[p] = curve.MustNew(pts)
	}
	hulls := core.Convexify(exact)
	promise := 1.0 // miss ratio the hulls promise under the best split
	if split, err := alloc.WeightedHillClimb(alloc.NewRequest(hulls, s.lines, max(s.lines/64, 1))); err == nil {
		promise = 0
		for p, h := range hulls {
			promise += h.Eval(float64(split[p])) / 1000
		}
	}
	m.set("oracle.hull_hit_ratio", 1-promise, "ratio")

	var dist, weight float64
	for _, ts := range st.StatsAll() {
		if measured, _, err := st.Curves(ts.Tenant); err == nil && measured != nil {
			p := ts.Partition
			w := float64(per[p].Accesses() - accBefore[p])
			dist += w * curve.Distance(measured, exact[p])
			weight += w
		}
	}
	m.set("monitor.curve_err", dist/math.Max(weight, 1), "ratio")
}

// routeRecorder interposes on the partitioned cache under the shadow
// layer and records what the layer asked of it: the partition sizes it
// programmed and the shadow partition it sent each access to.
type routeRecorder struct {
	core.PartitionedCache
	sizes []int64
	parts []uint8
}

func (c *routeRecorder) SetPartitionSizes(sizes []int64) error {
	c.sizes = append(c.sizes[:0], sizes...)
	return c.PartitionedCache.SetPartitionSizes(sizes)
}

func (c *routeRecorder) Access(addr uint64, part int) bool {
	c.parts = append(c.parts, uint8(part))
	return c.PartitionedCache.Access(addr, part)
}

// memWriter is the in-memory http.ResponseWriter of the handler rung.
type memWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// ladder replays the traced pass's own inputs against each public entry
// point from the bare cache up to the proxied hop. A layer's self time is
// its rung minus the rung below on the same inputs. Every rung is warmed
// untraced first, on a fresh instance of its layer.
func ladder(cfg config, in *inputs, rec *recording, warmed *adaptive.Cache, tr *tracer, m layerMetrics) error {
	calib := tr.calibrate()
	rung := func(agg spanAgg) float64 { // mean ns of a rung's spans, net of the span's own cost
		if agg.n == 0 {
			return 0
		}
		return math.Max(float64(agg.total)/float64(agg.n)-calib, 0)
	}
	adaptiveNs, err := cacheStackRungs(cfg, rec, warmed, tr, rung, m)
	if err != nil {
		return err
	}
	return requestRungs(cfg, in, adaptiveNs, tr, rung, m)
}

// cacheStackRungs replays node 0's recorded (partition, address) stream
// against the four layers under the store and returns the adaptive
// rung's ns per access.
func cacheStackRungs(cfg config, rec *recording, warmed *adaptive.Cache, tr *tracer, rung func(spanAgg) float64, m layerMetrics) (float64, error) {
	s := cfg.spec
	parts := len(s.tenants)
	first, last := rec.mark, min(len(rec.addrs), rec.mark+cfg.ladderAccesses)
	n := float64(max(last-first, 1))

	// Rung 1: the sharded set-associative cache alone, unpartitioned LRU.
	plain, err := sim.BuildShardedCache("none", s.lines, sim.DefaultAssoc, numShards, 1, "LRU", 1, cacheSeed)
	if err != nil {
		return 0, err
	}
	var evictions, plainHits int64
	for i := 0; i < first; i++ {
		plain.Access(rec.line(i), 0)
	}
	plain.SetEvictHook(func(int, uint64) { evictions++ })

	// Rung 2: Talus shadow partitions over a partitioned cache, configured
	// once from the warmed run's allocations and curves and then frozen.
	// The shadow layer's self time is this rung minus the cache underneath
	// doing the very same work: the partitioned cache is reached through an
	// interface, so a first replay records which shadow partition every
	// access was sent to, and the cache alone is then replayed with them.
	allocs := warmed.Allocations()
	curves := make([]*curve.Curve, parts)
	var promised float64
	for p := range curves {
		if curves[p] = warmed.Curve(p); curves[p] != nil {
			promised += core.InterpolatedMPKI(curves[p], float64(allocs[p])) / 1000
		}
	}
	newInner := func() (*cache.ShardedCache, error) {
		return sim.BuildShardedCache("vantage", s.lines, sim.DefaultAssoc, numShards, 2*parts, "LRU", parts, cacheSeed)
	}
	newShadowed := func(inner core.PartitionedCache) (*core.ShadowedCache, error) {
		sh, err := core.NewShadowedCache(inner, parts, talus.DefaultMargin, cacheSeed^0xADA97)
		if err != nil {
			return nil, err
		}
		return sh, sh.Reconfigure(allocs, curves)
	}
	inner, err := newInner()
	if err != nil {
		return 0, err
	}
	routed := &routeRecorder{PartitionedCache: inner}
	shadowed, err := newShadowed(routed)
	if err != nil {
		return 0, err
	}
	for i := 0; i < last; i++ {
		shadowed.Access(rec.line(i), int(rec.parts[i]))
	}
	if inner, err = newInner(); err != nil {
		return 0, err
	}
	if shadowed, err = newShadowed(inner); err != nil {
		return 0, err
	}
	under, err := newInner()
	if err != nil {
		return 0, err
	}
	if err := under.SetPartitionSizes(routed.sizes); err != nil {
		return 0, err
	}
	for i := 0; i < first; i++ {
		shadowed.Access(rec.line(i), int(rec.parts[i]))
		under.Access(rec.line(i), int(routed.parts[i]))
	}
	var coreHits int64

	// Rung 3: the monitors alone.
	mons := make([]*monitor.SlicedEpochMonitor, parts)
	for p := range mons {
		if mons[p], err = monitor.NewSlicedEpochMonitor(inner.PartitionableCapacity(), 0, cacheSeed+uint64(p)*0x9E3779B9, 0); err != nil {
			return 0, err
		}
	}

	// Rung 4: the adaptive cache — monitors, shadow partitions and the
	// epoch step. Epochs are forced at the store's interval and spanned
	// on their own, so the access rung excludes them.
	ac, err := sim.BuildAdaptiveCache("vantage", s.lines, sim.DefaultAssoc, numShards, parts, "LRU", talus.DefaultMargin,
		adaptive.Config{EpochAccesses: math.MaxInt64 / 2, Seed: cacheSeed})
	if err != nil {
		return 0, err
	}
	var epochErr error
	adaptiveAccess := func(i int) {
		ac.Access(rec.line(i), int(rec.parts[i]))
		if (i+1)%epochAccesses == 0 {
			id := tr.begin(spanEpoch)
			if err := ac.ForceEpoch(); err != nil {
				epochErr = err
			}
			tr.end(id)
		}
	}
	tr.on.Store(false)
	for i := 0; i < first; i++ {
		adaptiveAccess(i)
	}
	tr.on.Store(true)

	// These rungs cost tens of nanoseconds a call — as much as a span — and
	// the box's speed drifts by several percent over a second, more than
	// some layers' whole self time. So the replays advance in lockstep,
	// chunk by chunk, each chunk timed as one block under one span: a slow
	// moment slows every rung alike and cancels in the differences.
	rungs := []struct {
		name spanName
		call func(i int)
	}{
		{spanCache, func(i int) {
			if plain.Access(rec.line(i), 0) {
				plainHits++
			}
		}},
		{spanCore, func(i int) {
			if shadowed.Access(rec.line(i), int(rec.parts[i])) {
				coreHits++
			}
		}},
		{spanCacheUnder, func(i int) { under.Access(rec.line(i), int(routed.parts[i])) }},
		{spanMonitor, func(i int) { mons[rec.parts[i]].Observe(rec.line(i)) }},
		{spanAdaptive, adaptiveAccess},
	}
	const chunk = 1 << 16 // divides epochAccesses: a forced epoch ends its chunk
	for from := first; from < last; from += chunk {
		to := min(from+chunk, last)
		for _, r := range rungs {
			id := tr.beginReq(r.name, int64(from-first))
			for i := from; i < to; i++ {
				r.call(i)
			}
			tr.end(id)
		}
	}
	if epochErr != nil {
		return 0, epochErr
	}
	agg := tr.take()
	perCall := func(name spanName) float64 { return float64(agg[name].self) / n } // self: net of the epochs nested in a chunk
	coreNs, monitorNs, adaptiveNs := perCall(spanCore), perCall(spanMonitor), perCall(spanAdaptive)
	m.set("cache.access_ns", perCall(spanCache), "ns")
	m.set("cache.lru_hit_ratio", float64(plainHits)/n, "ratio")
	m.set("cache.evictions_per_kop", float64(evictions)/n*1000, "1/kop")
	m.set("core.self_ns", coreNs-perCall(spanCacheUnder), "ns")
	m.set("core.promise_gap", math.Abs(1-float64(coreHits)/n-promised), "ratio")
	m.set("monitor.observe_ns", monitorNs, "ns")
	m.set("adaptive.self_ns", adaptiveNs-coreNs-monitorNs, "ns")
	m.set("adaptive.epoch_us", rung(agg[spanEpoch])/1e3, "us")

	// The epoch step's two pure stages, on the warmed run's own curves.
	var measured []*curve.Curve
	for _, c := range curves {
		if c != nil {
			measured = append(measured, c)
		}
	}
	if len(measured) > 0 {
		budget := inner.PartitionableCapacity()
		req := alloc.NewRequest(core.Convexify(measured), budget, max(budget/64, 1))
		for rep := 0; rep < 200; rep++ {
			id := tr.begin(spanHull)
			hull.Lower(measured[rep%len(measured)])
			tr.end(id)
			id = tr.begin(spanAlloc)
			_, err := warmed.Allocator().Allocate(req)
			tr.end(id)
			if err != nil {
				return 0, err
			}
		}
	}
	agg = tr.take()
	m.set("hull.lower_us", rung(agg[spanHull])/1e3, "us")
	m.set("alloc.allocate_us", rung(agg[spanAlloc])/1e3, "us")

	return adaptiveNs, nil
}

// requestRungs replays the client's own requests against the store, the
// handler, the loopback socket and the three-node fleet.
func requestRungs(cfg config, in *inputs, adaptiveNs float64, tr *tracer, rung func(spanAgg) float64, m layerMetrics) error {
	s := cfg.spec
	warm, timed := in.warm[0], in.timed[0]
	storeOps := timed[:min(len(timed), cfg.ladderOps)]
	reqWarm, reqOps := warm[:min(len(warm), cfg.ladderReqs)], timed[:min(len(timed), cfg.ladderReqs)]
	build := func(sp *spec, warm, timed []op, o rigOpts) (*rig, [][][]byte, error) {
		p, err := prepare(cfg, sp, in, [][]op{warm}, [][]op{timed}, o)
		if err != nil {
			return nil, nil, err
		}
		return p.rig, p.reqs, nil
	}

	// Rung 5: the store's public calls, by op type; and what the live
	// state of a warmed store weighs per resident key.
	heap0 := heapAlloc()
	r, _, err := build(s.with(false, 1), warm, storeOps, rigOpts{tr: tr})
	if err != nil {
		return err
	}
	storePass, err := r.run([][]op{storeOps}, nil, nil, tr)
	heap1 := heapAlloc()
	keys := storeCounters(r.stores).Keys
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	agg := tr.take()
	getNs := rung(agg[spanStoreGet])
	m.set("store.get_ns", getNs, "ns")
	m.set("store.set_ns", rung(agg[spanStoreSet]), "ns")
	m.set("store.delete_ns", rung(agg[spanStoreDelete]), "ns")
	m.set("store.self_ns", getNs-adaptiveNs, "ns")
	m.set("store.heap_bytes_per_key", float64(heap1-min(heap0, heap1))/math.Max(float64(keys), 1), "B")

	// The same requests through the store alone, for the handler's self time.
	r, _, err = build(s.with(false, 1), reqWarm, reqOps, rigOpts{tr: tr})
	if err != nil {
		return err
	}
	_, err = r.run([][]op{reqOps}, nil, nil, tr)
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	agg = tr.take()
	var storeCalls spanAgg
	for _, name := range []spanName{spanStoreGet, spanStoreSet, spanStoreDelete} {
		storeCalls.n += agg[name].n
		storeCalls.total += agg[name].total
	}
	storeUs := rung(storeCalls) / 1e3

	// Rung 6: serve.Handler called directly, no socket.
	r, reqs, err := build(s.with(true, 1), reqWarm, reqOps, rigOpts{})
	if err != nil {
		return err
	}
	parsed := make([]*http.Request, len(reqOps))
	for i, raw := range reqs[0] {
		if parsed[i], err = http.ReadRequest(bufio.NewReader(bytes.NewReader(raw))); err != nil {
			r.close()
			return err
		}
	}
	var handlerPass clientResult
	w := &memWriter{hdr: http.Header{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, o := range reqOps {
		clear(w.hdr)
		w.status = http.StatusOK
		w.body.Reset()
		id := tr.beginReq(spanHandler, int64(i))
		r.handlers[0].ServeHTTP(w, parsed[i])
		tr.end(id)
		checkReply(&handlerPass, i, o, w.status, w.body.Bytes(), in, r.model)
	}
	runtime.ReadMemStats(&ms1)
	if err := r.close(); err != nil {
		return err
	}
	agg = tr.take()
	handlerUs := rung(agg[spanHandler]) / 1e3
	m.set("serve.handler_us", handlerUs, "us")
	m.set("serve.self_us", handlerUs-storeUs, "us")
	m.set("serve.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/math.Max(float64(len(reqOps)), 1), "count")

	// Rung 7: the same handler behind http.Server on a loopback socket.
	r, reqs, err = build(s.with(true, 1), reqWarm, reqOps, rigOpts{tr: tr})
	if err != nil {
		return err
	}
	loopPass, err := r.run([][]op{reqOps}, reqs, nil, tr)
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	agg = tr.take()
	m.set("serve.socket_us", rung(agg[spanRequest])/1e3-handlerUs, "us")

	// Rung 8: three nodes behind the ring, entry node rotated: what one
	// proxied hop adds, and how the ring deals the requests.
	r, reqs, err = build(s.with(true, 3), reqWarm, reqOps, rigOpts{tr: tr})
	if err != nil {
		return err
	}
	hopPass, err := r.run([][]op{reqOps}, reqs, nil, tr)
	if err == nil {
		for i, o := range reqOps {
			id := tr.beginReq(spanRoute, int64(i))
			r.ring.Route(in.tenant(o.key()), in.keys[o.key()])
			tr.end(id)
		}
		var dev float64
		shares := r.ring.Shares()
		for node, addr := range r.addrs {
			dev = math.Max(dev, math.Abs(float64(hopPass.served[node])/math.Max(float64(hopPass.fwd+hopPass.local), 1)-shares[addr]))
		}
		m.set("cluster.share_dev", dev, "ratio")
	}
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	agg = tr.take()
	m.set("cluster.route_ns", rung(agg[spanRoute]), "ns")
	m.set("cluster.forward_ratio", float64(hopPass.fwd)/math.Max(float64(hopPass.fwd+hopPass.local), 1), "ratio")
	m.set("cluster.hop_us", (float64(hopPass.fwdNs)/math.Max(float64(hopPass.fwd), 1)-float64(hopPass.localNs)/math.Max(float64(hopPass.local), 1))/1e3, "us")

	// The harness itself: the same client loop against the cheapest
	// correct responder.
	clientUs, stubFailed, err := clientCost(cfg, in, storeOps, reqOps)
	if err != nil {
		return err
	}
	m.set("bench.client_us", clientUs, "us")

	failed := stubFailed
	var first string
	for _, res := range []clientResult{storePass.clientResult, handlerPass, loopPass.clientResult, hopPass.clientResult} {
		failed += res.failed
		if first == "" {
			first = res.firstFail
		}
	}
	if failed > 0 {
		return fmt.Errorf("ladder: %d replies failed verification; first: %s", failed, first)
	}
	return nil
}

// clientCost measures the harness's own CPU per op: an in-process
// workload's loop against the bare backend (no cache in front of it), an
// HTTP workload's client against a canned-response stub.
func clientCost(cfg config, in *inputs, storeOps, reqOps []op) (us float64, failed int64, err error) {
	s := cfg.spec
	if !s.http {
		r, err := newRig(s, in, 1, rigOpts{})
		if err != nil {
			return 0, 0, err
		}
		defer r.close()
		if err := r.preload(); err != nil {
			return 0, 0, err
		}
		p, err := r.run([][]op{storeOps}, nil, bare{r.be}, nil)
		if err != nil {
			return 0, 0, err
		}
		return float64(p.cpu.Nanoseconds()) / 1e3 / math.Max(float64(p.ops), 1), p.failed, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	stopped := make(chan struct{})
	go func() {
		serveCanned(ln, s.valueSize(0))
		close(stopped)
	}()
	defer func() {
		ln.Close()
		<-stopped
	}()
	reqs := renderStream(in, newModel(len(in.keys)), reqOps)
	conn, err := dialHTTP(ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer conn.close()
	var rep httpReply
	cpu0 := cpuTime()
	for _, req := range reqs {
		if err := conn.roundTrip(req, &rep); err != nil || rep.status != 200 {
			failed++
		}
	}
	return float64((cpuTime() - cpu0).Nanoseconds()) / 1e3 / math.Max(float64(len(reqs)), 1), failed, nil
}
