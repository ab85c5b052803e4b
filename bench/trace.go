package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per boundary the bench can see from outside the
// program. The first group wraps calls a workload makes or the program
// makes back into the bench (interposition); the second group is the
// ladder, one name per rung.
type spanName uint8

const (
	spanCalib spanName = iota // empty span: what begin/end themselves cost
	spanBackend
	spanStoreGet
	spanStoreSet
	spanStoreDelete
	spanRequest      // one HTTP request as the client sees it
	spanHandlerEntry // serve.Handler on the node the client dialled
	spanHandlerOwner // serve.Handler on the owner, reached by one forwarded hop
	spanCache        // ladder: ShardedCache.Access, unpartitioned LRU
	spanCacheUnder   // ladder: ShardedCache.Access as the shadow layer drives it
	spanCore         // ladder: ShadowedCache.Access
	spanMonitor      // ladder: SlicedEpochMonitor.Observe
	spanAdaptive     // ladder: adaptive.Cache.Access
	spanEpoch        // ladder: adaptive.Cache.ForceEpoch
	spanHull         // ladder: hull.Lower
	spanAlloc        // ladder: Allocator.Allocate
	spanHandler      // ladder: Handler.ServeHTTP, no socket
	spanRoute        // ladder: Ring.Route
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.calib", "store.backend", "store.get", "store.set", "store.delete",
	"client.request", "serve.entry", "serve.owner",
	"cache.access", "cache.access.shadowed", "core.access", "monitor.observe", "adaptive.access", "adaptive.epoch",
	"hull.lower", "alloc.allocate", "serve.handler", "cluster.route",
}

// keepPerName bounds the spans written to the trace file: the first
// keepPerName of each name are kept whole, every span is aggregated.
const keepPerName = 2000

// span is one kept span, as written to bench/out/trace-<workload>.json.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: no parent
	Req    int64  `json:"req"`    // the client request that caused it
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	id    int32
	name  spanName
	start int64
	child int64 // time covered by child spans
}

type spanAgg struct{ n, total, self int64 }

// tracer records spans in memory. Traced runs keep one request in
// flight, so spans nest strictly in time and a span's parent is the
// span open when it began, on whichever goroutine that is. A nil
// tracer records nothing.
type tracer struct {
	on    atomic.Bool // spans are dropped until set: set-up and warm-up are not traced
	mu    sync.Mutex
	t0    time.Time
	req   int64
	next  int32
	stack []openSpan
	agg   [numSpanNames]spanAgg
	kept  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span caused by the current client request.
func (t *tracer) begin(name spanName) int32 { return t.beginReq(name, -1) }

// beginReq opens a span and, with req >= 0, names the client request it
// and the spans nested in it belong to.
func (t *tracer) beginReq(name spanName, req int64) int32 {
	if t == nil || !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	if req >= 0 {
		t.req = req
	}
	t.next++
	id := t.next
	t.stack = append(t.stack, openSpan{id: id, name: name, start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	now := int64(time.Since(t.t0))
	top := len(t.stack) - 1
	o := t.stack[top]
	if o.id != id {
		panic("bench: spans ended out of order; traced runs keep one request in flight")
	}
	t.stack = t.stack[:top]
	dur := now - o.start
	a := &t.agg[o.name]
	a.n++
	a.total += dur
	a.self += dur - o.child
	var parent int32
	if top > 0 {
		t.stack[top-1].child += dur
		parent = t.stack[top-1].id
	}
	if a.n <= keepPerName {
		t.kept = append(t.kept, span{Name: spanNames[o.name], ID: id, Parent: parent, Req: t.req, Start: o.start, End: now})
	}
	t.mu.Unlock()
}

// take returns the aggregates since the last take and zeroes them, so
// each phase of a traced run reads its own spans.
func (t *tracer) take() [numSpanNames]spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	agg := t.agg
	t.agg = [numSpanNames]spanAgg{}
	return agg
}

// calibrate measures what an empty span reads in ns: the part of
// begin/end that falls inside every span's own interval.
func (t *tracer) calibrate() float64 {
	const n = 100_000
	for i := 0; i < n; i++ {
		t.end(t.begin(spanCalib))
	}
	return float64(t.take()[spanCalib].total) / n
}

type traceFile struct {
	Workload string             `json:"workload"`
	Host     map[string]any     `json:"host"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
}

// write stores the kept spans and the per-layer metrics derived from
// all spans under dir.
func (t *tracer) write(dir, workload string, host map[string]any, metrics map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Host: host, Metrics: metrics, Spans: t.kept})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
