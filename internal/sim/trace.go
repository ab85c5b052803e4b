// Trace-driven experiments: record the exact access stream a live run
// would generate, and replay it through the same machinery. Recording
// happens at the feeder level (the same interleaving FeedAdaptive
// drives), and addresses are stored in each generator's private space —
// the per-app address-space offset (AppSpace) is applied by the feeders
// on both the live and replay paths. Replay is one Access per record, in
// record order, so the trace alone determines it: a recorded stream is
// byte-identical to the live one and produces identical miss counts on
// an identically built cache. Traces also stand in for generators:
// a recorded stream is a workload.Pattern, and "trace:<path>" names one
// anywhere an app name is accepted.

package sim

import (
	"errors"
	"fmt"
	"io"
	"os"

	"talus/internal/adaptive"
	"talus/internal/hash"
	"talus/internal/trace"
	"talus/internal/workload"
)

// RecordApps writes the interleaved stream FeedAdaptive would feed —
// accessesPerApp accesses per app, round-robin in runs of feedRunLen —
// to w, one record per access, without the AppSpace offset (feeders
// re-apply it at replay).
func RecordApps(w *trace.Writer, apps []*workload.App, accessesPerApp int64) error {
	var err error
	roundRobin(len(apps), accessesPerApp, func(i int, _ int64) {
		if err == nil {
			err = w.Append(i, apps[i].Next())
		}
	})
	return err
}

// RecordSpecs instantiates specs with RunAdaptive's per-app seeds
// (seed + i*7919), records their interleaved stream to path with
// per-app metadata embedded, and reports the record count. A trace
// recorded at seed S replays — via RunAdaptiveTraceFile on an
// identically configured cache — exactly as RunAdaptive(cfg with Seed S)
// runs live.
func RecordSpecs(path string, specs []workload.Spec, accessesPerApp int64, seed uint64, gz bool) (int64, error) {
	if len(specs) == 0 {
		return 0, fmt.Errorf("sim: recording needs apps")
	}
	if accessesPerApp <= 0 {
		accessesPerApp = 4 << 20
	}
	apps := make([]*workload.App, len(specs))
	metas := make([]trace.AppMeta, len(specs))
	for i, spec := range specs {
		apps[i] = workload.NewApp(spec, seed+uint64(i)*7919)
		metas[i] = trace.AppMeta{Name: spec.Name, APKI: spec.APKI, CPIBase: spec.CPIBase, MLP: spec.MLP}
	}
	opts := []trace.WriterOption{trace.WithApps(metas)}
	if gz {
		opts = append(opts, trace.WithGzip())
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w, err := trace.NewWriter(f, len(specs), opts...)
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := RecordApps(w, apps, accessesPerApp); err != nil {
		f.Close()
		return 0, err
	}
	count := w.Count()
	if err := w.Close(); err != nil {
		f.Close()
		return 0, err
	}
	return count, f.Close()
}

// SpecsFromTrace loads path and returns one workload.Spec per recorded
// partition, each replaying that partition's sub-stream — trace-backed
// apps for RunMix, RunSweep, or RunAdaptive.
func SpecsFromTrace(path string) ([]workload.Spec, error) {
	t, err := trace.Load(path)
	if err != nil {
		return nil, err
	}
	specs := headerSpecs(t.Header)
	for p, addrs := range t.PartitionStreams() {
		if specs[p], err = replaying(specs[p], addrs); err != nil {
			return nil, fmt.Errorf("trace: partition %d: %w", p, err)
		}
	}
	return specs, nil
}

// FeedAdaptiveTraceReader replays a trace.Reader into ac without loading
// the trace: one Access per record, in record order, the AppSpace offset
// applied exactly as FeedAdaptive does. Returns per-partition miss and
// access counts from tailStart[p] on, the record index within partition
// p where steady-state measurement begins (traceTailStarts computes it
// from per-partition totals); memory use is constant regardless of trace
// length.
func FeedAdaptiveTraceReader(ac Accessor, r *trace.Reader, tailStart []int64) (misses, accs []int64, err error) {
	n := r.Header().NumPartitions
	misses = make([]int64, n)
	accs = make([]int64, n)
	fed := make([]int64, n)
	for {
		rec, e := r.Next()
		if e == io.EOF {
			return misses, accs, nil
		}
		if e != nil {
			return nil, nil, e
		}
		hit := ac.Access(rec.Addr|adaptive.AppSpace(rec.P), rec.P)
		if fed[rec.P] >= tailStart[rec.P] {
			accs[rec.P]++
			if !hit {
				misses[rec.P]++
			}
		}
		fed[rec.P]++
	}
}

// traceTailStarts converts per-partition record totals and a tail
// fraction into the per-partition indices where measurement begins.
func traceTailStarts(totals []int64, tailFrac float64) []int64 {
	out := make([]int64, len(totals))
	for p, total := range totals {
		out[p] = total - int64(tailFrac*float64(total))
	}
	return out
}

// traceShape streams path once and returns its header and per-partition
// record counts: the pre-pass a streaming replay needs (tail boundaries
// and partition count) in constant memory, where Load would hold the
// whole trace.
func traceShape(path string) (trace.Header, []int64, error) {
	r, err := trace.OpenFile(path)
	if err != nil {
		return trace.Header{}, nil, err
	}
	defer r.Close()
	counts := make([]int64, r.Header().NumPartitions)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return r.Header(), counts, nil
		}
		if err != nil {
			return trace.Header{}, nil, fmt.Errorf("sim: scanning %s: %w", path, err)
		}
		counts[rec.P]++
	}
}

// adaptiveTraceCache validates a trace-driven config against the
// trace's partition count, resolves specs (cfg.Apps, else the trace's
// metadata), and builds the adaptive cache.
func adaptiveTraceCache(cfg AdaptiveConfig, hdr trace.Header) (*adaptive.Cache, AdaptiveConfig, error) {
	n := hdr.NumPartitions
	if len(cfg.Apps) != 0 && len(cfg.Apps) != n {
		return nil, cfg, fmt.Errorf("sim: %d apps for a %d-partition trace", len(cfg.Apps), n)
	}
	specs := cfg.Apps
	if len(specs) == 0 {
		specs = headerSpecs(hdr)
	}
	// Borrow the generator-driven config's defaulting for the shared
	// knobs (stack, allocator, margin, tail fraction) and its capacity and
	// Weights checks — specs has one entry per trace partition, so the
	// Weights check and the cache's partition count follow the trace.
	probe := cfg
	probe.Apps = specs
	if err := probe.defaults(); err != nil {
		return nil, cfg, err
	}
	ac, err := probe.buildCache()
	return ac, probe, err
}

// RunAdaptiveTraceFile drives one adaptive run from a recorded trace
// instead of live generators: the cache is built for the trace's
// partition count and fed the recorded stream. cfg.Apps is optional
// (metadata embedded in the trace, or defaults, name the partitions and
// scale MPKI); cfg.AccessesPerApp is ignored — the trace determines the
// traffic. The replay streams: the file is scanned once for its shape
// (partition counts → tail boundaries) and once more to feed the cache,
// so traces larger than memory replay in constant memory, and
// partitions with no records are tolerated (metadata-only specs need no
// addresses).
func RunAdaptiveTraceFile(cfg AdaptiveConfig, path string) (*AdaptiveResult, error) {
	hdr, counts, err := traceShape(path)
	if err != nil {
		return nil, err
	}
	ac, probe, err := adaptiveTraceCache(cfg, hdr)
	if err != nil {
		return nil, err
	}
	r, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	misses, accs, err := FeedAdaptiveTraceReader(ac, r.Reader, traceTailStarts(counts, probe.TailFrac))
	if err != nil {
		return nil, fmt.Errorf("sim: replaying %s: %w", path, err)
	}
	return adaptiveResult(ac, probe.Apps, misses, accs), nil
}

// replay cycles through a recorded address stream, implementing
// workload.Pattern so traces slot anywhere a generator does (RunSweep,
// RunMix, talus-sim app lists). Like Scan, it wraps around when
// exhausted: replay longer than the recording laps the stream.
type replay struct {
	addrs     []uint64
	pos       int
	footprint int64
}

// newReplay builds a replay over addrs (which must be non-empty; the
// slice is retained, not copied).
func newReplay(addrs []uint64) (*replay, error) {
	if len(addrs) == 0 {
		return nil, errors.New("trace: empty replay stream")
	}
	distinct := make(map[uint64]struct{}, min(len(addrs), 1<<20))
	for _, a := range addrs {
		distinct[a] = struct{}{}
	}
	return &replay{addrs: addrs, footprint: int64(len(distinct))}, nil
}

// Next implements workload.Pattern.
func (r *replay) Next(_ *hash.SplitMix64) uint64 {
	a := r.addrs[r.pos]
	r.pos++
	if r.pos == len(r.addrs) {
		r.pos = 0
	}
	return a
}

// Footprint implements workload.Pattern: the number of distinct lines in
// the recording.
func (r *replay) Footprint() int64 { return r.footprint }

// Clone implements workload.Pattern (fresh position, shared addresses).
func (r *replay) Clone() workload.Pattern {
	return &replay{addrs: r.addrs, footprint: r.footprint}
}

// Core-model parameters for traces recorded without metadata: a
// moderately memory-intensive app (the analytic model needs some
// APKI/CPI/MLP to convert misses to IPC; miss counts are unaffected).
const (
	traceAPKI    = 10.0
	traceCPIBase = 0.5
	traceMLP     = 2.0
)

// metaSpec builds a pattern-less workload.Spec named name with the
// default core-model parameters, overridden by meta when carried.
func metaSpec(name string, meta trace.AppMeta, ok bool) workload.Spec {
	spec := workload.Spec{Name: name, APKI: traceAPKI, CPIBase: traceCPIBase, MLP: traceMLP}
	if ok {
		if meta.Name != "" {
			spec.Name = meta.Name
		}
		if meta.APKI > 0 {
			spec.APKI = meta.APKI
		}
		if meta.CPIBase > 0 {
			spec.CPIBase = meta.CPIBase
		}
		if meta.MLP > 0 {
			spec.MLP = meta.MLP
		}
	}
	return spec
}

// headerSpecs returns one metadata-only workload.Spec per partition of
// h, named and parameterized from its metadata where carried, with no
// Build function, so no addresses need loading. Streaming replay uses
// these to label results and scale MPKI while the trace itself carries
// the traffic; instantiating one with workload.NewApp panics (there is
// no pattern to build).
func headerSpecs(h trace.Header) []workload.Spec {
	out := make([]workload.Spec, h.NumPartitions)
	for p := range out {
		var meta trace.AppMeta
		ok := false
		if h.Apps != nil && p < len(h.Apps) {
			meta, ok = h.Apps[p], true
		}
		out[p] = metaSpec(fmt.Sprintf("trace-p%d", p), meta, ok)
	}
	return out
}

// replaying returns spec with a Build that replays addrs.
func replaying(spec workload.Spec, addrs []uint64) (workload.Spec, error) {
	rp, err := newReplay(addrs)
	if err != nil {
		return workload.Spec{}, err
	}
	spec.Build = func() workload.Pattern { return rp.Clone() }
	return spec, nil
}

// traceAppSpec loads path and returns a workload.Spec replaying its full
// (partition-interleaved) stream — the resolver behind the
// "trace:<path>" workload source. Addresses are recorded in
// per-partition private spaces, so for multi-partition traces each
// partition's addresses are offset into a disjoint subspace before
// merging; flattening raw would alias unrelated apps' lines into
// spurious reuse. The offset lives in bits 56–63 — above the bits
// 48–55 the feeders OR their own per-app offset into (adaptive.AppSpace)
// and the bits 40–47 Mix/Phased use for component indices — because
// the fields combine by OR: overlapping them would collapse distinct
// partitions ((2|1)<<48 == (3|1)<<48). That field width caps flattened
// replay at 255 partitions; wider traces must go through SpecsFromTrace
// (one app per partition) instead.
func traceAppSpec(path string) (workload.Spec, error) {
	t, err := trace.Load(path)
	if err != nil {
		return workload.Spec{}, err
	}
	meta, ok := t.Meta(0)
	addrs := t.Flat()
	if t.NumPartitions() != 1 {
		if t.NumPartitions() > 255 {
			return workload.Spec{}, fmt.Errorf("trace: %s: flattened replay supports at most 255 partitions (have %d); use per-partition specs", path, t.NumPartitions())
		}
		ok = false // mixed streams have no single app's parameters
		addrs = make([]uint64, len(t.Records))
		for i, r := range t.Records {
			// The OR only stays collision-free while recorded addresses
			// leave the tag field clear; an address already using bits
			// 56–63 (a re-recorded flattened trace, an external full-
			// 64-bit trace) would alias silently, so reject it.
			if r.Addr >= 1<<56 {
				return workload.Spec{}, fmt.Errorf("trace: %s: record %d address %#x uses bits 56-63, which flattened replay needs for partition tags; use per-partition specs", path, i, r.Addr)
			}
			addrs[i] = r.Addr | uint64(r.P+1)<<56
		}
	}
	spec, err := replaying(metaSpec("trace:"+path, meta, ok), addrs)
	if err != nil {
		return workload.Spec{}, fmt.Errorf("trace: %s: %w", path, err)
	}
	return spec, nil
}

func init() {
	workload.RegisterSource("trace", traceAppSpec)
}
