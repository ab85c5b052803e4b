// Trace-driven experiments: record the exact access stream a live run
// would generate, and replay it through the same machinery. Recording
// happens at the feeder level (the same interleaving FeedAdaptive
// drives), and addresses are stored in each generator's private space —
// the per-app address-space offset (AppSpace) is applied by the feeders
// on both the live and replay paths. Replay is one Access per record, in
// record order, so the trace alone determines it: a recorded stream is
// byte-identical to the live one and produces identical miss counts on
// an identically built cache.

package sim

import (
	"fmt"
	"io"
	"os"

	"talus/internal/adaptive"
	"talus/internal/trace"
	"talus/internal/workload"
)

// RecordApps writes the interleaved stream FeedAdaptive would feed —
// accessesPerApp accesses per app, round-robin in runs of feedRunLen —
// to w, one record per access, without the AppSpace offset (feeders
// re-apply it at replay).
func RecordApps(w *trace.Writer, apps []*workload.App, accessesPerApp int64) error {
	fed := make([]int64, len(apps))
	for done := false; !done; {
		done = true
		for i, app := range apps {
			k := min(feedRunLen, accessesPerApp-fed[i])
			if k <= 0 {
				continue
			}
			done = false
			for j := int64(0); j < k; j++ {
				if err := w.Append(i, app.Next()); err != nil {
					return err
				}
			}
			fed[i] += k
		}
	}
	return nil
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
	return t.Specs()
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
		hit := ac.Access(rec.Addr|AppSpace(rec.P), rec.P)
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
	if cfg.CapacityLines <= 0 {
		return nil, cfg, fmt.Errorf("sim: adaptive trace run needs capacity")
	}
	if len(cfg.Apps) != 0 && len(cfg.Apps) != n {
		return nil, cfg, fmt.Errorf("sim: %d apps for a %d-partition trace", len(cfg.Apps), n)
	}
	specs := cfg.Apps
	if len(specs) == 0 {
		specs = trace.HeaderSpecs(hdr)
	}
	// Borrow the generator-driven config's defaulting for the shared
	// knobs (allocator, margin, tail fraction) and its Weights length
	// check — specs has one entry per trace partition, so that check and
	// the cache's partition count both follow the trace.
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
