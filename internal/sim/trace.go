// Trace-driven experiments: record the exact access stream a live run
// would generate, and replay it through the same machinery. A stream is
// one record sequence whether live generators (live) or a trace file
// (trace.Reader.All) yield it, and one loop (feed) drives either into
// the cache, so a recorded stream produces identical miss counts on an
// identically built cache. Addresses are recorded in each generator's
// private space; feed applies the per-app offset (AppSpace). Traces also
// stand in for generators: SpecsFromTrace makes each recorded partition
// an app (talus-sim mix -trace).

package sim

import (
	"errors"
	"fmt"

	"talus/internal/hash"
	"talus/internal/trace"
	"talus/internal/workload"
)

// RecordSpecs instantiates specs with RunAdaptive's per-app seeds
// (seed + i*7919), records their live stream to path with per-app
// metadata embedded, and reports the record count. A trace recorded at
// seed S replays — via RunAdaptiveTraceFile on an identically configured
// cache — exactly as RunAdaptive(cfg with Seed S) runs live.
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
	w, err := trace.Create(path, len(specs), opts...)
	if err != nil {
		return 0, err
	}
	for rec := range live(apps, accessesPerApp) {
		if w.Append(rec.P, rec.Addr) != nil {
			break // Close reports it
		}
	}
	return w.Count(), w.Close()
}

// RunAdaptiveTraceFile drives one adaptive run from a recorded trace
// instead of live generators: the cache is built for the trace's
// partitions, named and MPKI-scaled by its header (see headerSpecs), and
// fed the recorded stream. The trace determines the traffic, so
// cfg.Apps must be empty and cfg.AccessesPerApp is not read. The file is
// read twice — once to count each partition's records (the tail
// boundaries), once to feed them — so a trace larger than memory replays
// in constant memory.
func RunAdaptiveTraceFile(cfg AdaptiveConfig, path string) (*AdaptiveResult, error) {
	if len(cfg.Apps) != 0 {
		return nil, fmt.Errorf("sim: %s names its own apps; cfg.Apps must be empty", path)
	}
	r, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	totals := make([]int64, r.Header().NumPartitions)
	for rec, err := range r.All() {
		if err != nil {
			return nil, fmt.Errorf("sim: scanning %s: %w", path, err)
		}
		totals[rec.P]++
	}
	cfg.Apps = headerSpecs(r.Header())
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	again, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer again.Close()
	res, err := run(cfg, again.All(), totals)
	if err != nil {
		return nil, fmt.Errorf("sim: replaying %s: %w", path, err)
	}
	return res, nil
}

// SpecsFromTrace streams path once and returns one workload.Spec per
// recorded partition, named and parameterized by headerSpecs, each
// replaying that partition's sub-stream — trace-backed apps for RunMix,
// RunSweep, or RunAdaptive.
func SpecsFromTrace(path string) ([]workload.Spec, error) {
	r, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	specs := headerSpecs(r.Header())
	streams := make([][]uint64, len(specs))
	for rec, err := range r.All() {
		if err != nil {
			return nil, err
		}
		streams[rec.P] = append(streams[rec.P], rec.Addr)
	}
	for p, addrs := range streams {
		rp, err := newReplay(addrs)
		if err != nil {
			return nil, fmt.Errorf("trace: partition %d: %w", p, err)
		}
		specs[p].Build = func() workload.Pattern { return &replay{addrs: rp.addrs, footprint: rp.footprint} }
	}
	return specs, nil
}

// replay cycles through a recorded address stream, implementing
// workload.Pattern so traces slot anywhere a generator does (RunSweep,
// RunMix, talus-sim mix -trace). Like Scan, it wraps around when
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

// Core-model parameters for traces recorded without metadata: a
// moderately memory-intensive app (the analytic model needs some
// APKI/CPI/MLP to convert misses to IPC; miss counts are unaffected).
const (
	traceAPKI    = 10.0
	traceCPIBase = 0.5
	traceMLP     = 2.0
)

// headerSpecs returns one pattern-less workload.Spec per partition of h:
// named "trace-p<p>" with the default core-model parameters, each
// overridden by the partition's metadata where carried and set. Replay
// uses these to label results and scale MPKI while the trace carries
// the traffic; SpecsFromTrace adds a Build that replays the partition.
func headerSpecs(h trace.Header) []workload.Spec {
	out := make([]workload.Spec, h.NumPartitions)
	for p := range out {
		spec := workload.Spec{Name: fmt.Sprintf("trace-p%d", p), APKI: traceAPKI, CPIBase: traceCPIBase, MLP: traceMLP}
		if p < len(h.Apps) {
			meta := h.Apps[p]
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
		out[p] = spec
	}
	return out
}
