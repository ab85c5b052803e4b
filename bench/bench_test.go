package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"talus/internal/cluster"
	"talus/internal/store"
)

// testBasePort keeps the tests' ring nodes off the benchmark's ports.
const testBasePort = 39301

// smoke is a run small enough for tier-1: a few epochs, under a second.
func smoke(t *testing.T, workload string) config {
	t.Helper()
	s, err := specByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{spec: s, seed: 1, seconds: 1, basePort: testBasePort, outDir: t.TempDir(), setups: 1,
		warmOps: 300_000, timedOps: 800_000, ladderAccesses: 1 << 14, ladderOps: 1 << 12, ladderReqs: 1 << 8}
	if s.http {
		cfg.warmOps, cfg.timedOps = 2_000, 8_000
	}
	return cfg
}

func TestStreamDigestRepeats(t *testing.T) {
	for _, s := range specs {
		a := generate(s, 7, s.clients, 1000, 4000)
		b := generate(s, 7, s.clients, 1000, 4000)
		c := generate(s, 8, s.clients, 1000, 4000)
		if a.digest != b.digest {
			t.Errorf("%s: same seed, digests %016x and %016x", s.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %016x", s.name, a.digest)
		}
		for cl := range a.timed {
			if !slices.Equal(a.timed[cl], b.timed[cl]) || !slices.Equal(a.warm[cl], b.warm[cl]) {
				t.Errorf("%s: client %d streams differ under one seed", s.name, cl)
			}
		}
	}
}

// With one client nothing in store-cliff races, so every count must
// repeat exactly: hits, misses, backend reads, epochs.
func TestStoreCliffCountsRepeat(t *testing.T) {
	type counts struct {
		gets, backendGets      int64
		epochs                 int
		lineHits, lineMisses   int64
		evictions, backendSets int64
	}
	run := func() counts {
		cfg := smoke(t, "store-cliff")
		in := generate(cfg.spec, cfg.seed, 1, cfg.warmOps, cfg.timedOps)
		p, err := prepare(cfg, cfg.spec, in, in.warm, in.timed, rigOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.rig.close()
		timed, err := p.rig.run(in.timed, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if timed.failed != 0 {
			t.Fatalf("%d ops failed: %s", timed.failed, timed.firstFail)
		}
		st := storeCounters(p.rig.stores)
		return counts{timed.gets, timed.backendGets, p.rig.stores[0].Cache().Epochs(),
			st.CacheHits, st.CacheMisses, st.Evictions, st.BackendSets}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two runs of one seed disagree:\n%+v\n%+v", a, b)
	}
	if a.epochs < 3 || a.backendGets == 0 || a.backendGets == a.gets {
		t.Fatalf("smoke run too small to mean anything: %+v", a)
	}
}

// Ring ownership is a pure function of the node names, seed and vnode
// count. The benchmark's forward ratio and per-node shares rest on this
// table; a change here is a routing change, not noise.
func TestRingOwnershipGolden(t *testing.T) {
	nodes := []string{"127.0.0.1:39201", "127.0.0.1:39202", "127.0.0.1:39203"}
	ring, err := cluster.NewRing(nodes, ringVNodes, ringSeed)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := specByName("cluster-hop")
	in := generate(s, 1, 1, 0, 0)
	owned := map[string]int{}
	var first []byte
	for k, key := range in.keys {
		owner := ring.Route(in.tenant(uint32(k)), key)
		owned[owner]++
		if k < 24 {
			first = append(first, owner[len(owner)-1])
		}
	}
	got := fmt.Sprintf("%s %d %d %d", first, owned[nodes[0]], owned[nodes[1]], owned[nodes[2]])
	const want = "113333222212312321121111 5548 5707 5129"
	if got != want {
		t.Fatalf("ownership of the %d cluster-hop keys changed:\n got %s\nwant %s", len(in.keys), got, want)
	}
}

// corruptBackend flips one bit in every value it reads through.
type corruptBackend struct{ store.Backend }

func (c corruptBackend) Get(tenant, key string) ([]byte, error) {
	v, err := c.Backend.Get(tenant, key)
	if err == nil && len(v) > 9 {
		v[9] ^= 1
	}
	return v, err
}

func TestCorruptBackendIsCaught(t *testing.T) {
	cfg := smoke(t, "store-cliff")
	cfg.warmOps, cfg.timedOps = 20_000, 100_000
	res, err := runMeasured(cfg, rigOpts{wrapBackend: func(b store.Backend) store.Backend { return corruptBackend{b} }})
	if err != nil {
		t.Fatal(err)
	}
	if ok := res.Metrics["ok_ratio"].Value; ok >= 1 || res.Failed == 0 || res.Correct {
		t.Fatalf("corrupted values passed verification: ok_ratio %v, failed %d, correct %v", ok, res.Failed, res.Correct)
	}
	if exitCode(res) == 0 {
		t.Fatal("a run with failed ops exits 0")
	}
}

func TestFailingHandlerIsCaught(t *testing.T) {
	cfg := smoke(t, "http-hot")
	var n atomic.Int64
	failing := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1)%50 == 0 {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	res, err := runMeasured(cfg, rigOpts{wrapHandler: failing})
	if err != nil {
		t.Fatal(err)
	}
	if ok := res.Metrics["ok_ratio"].Value; ok >= 1 || res.Failed == 0 || res.Correct {
		t.Fatalf("500s passed verification: ok_ratio %v, failed %d, correct %v", ok, res.Failed, res.Correct)
	}
	if exitCode(res) == 0 {
		t.Fatal("a run with failed ops exits 0")
	}
}

// The lean client must read every route the workloads use exactly as
// net/http does: status, body and the two headers it parses, on local
// and forwarded requests.
func TestLeanClientMatchesNetHTTP(t *testing.T) {
	s, _ := specByName("store-churn") // all four request kinds, varied value sizes
	s = s.with(true, 3)
	in := generate(s, 1, 1, 0, 0)
	r, err := newRig(s, in, 1, rigOpts{basePort: testBasePort})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.preload(); err != nil {
		t.Fatal(err)
	}
	// One key per step, so neither client sees the other's writes.
	steps := []struct {
		kind int
		key  uint32
	}{
		{opGet, 11}, {opSet, 12}, {opSetTTL, 13}, {opDelete, 14}, {opDelete, 14}, {opGet, 14}, {opGet, 200_000},
	}
	m := newModel(len(in.keys))
	copy(m.ver, r.model.ver)
	for entry, addr := range r.addrs {
		lean, err := dialHTTP(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer lean.close()
		for i, st := range steps {
			raw := renderStream(in, &model{ver: slices.Clone(m.ver)}, []op{mkOp(st.kind, st.key)})[0]
			var rep httpReply
			if err := lean.roundTrip(raw, &rep); err != nil {
				t.Fatalf("entry %d step %d: %v", entry, i, err)
			}
			head, body, _ := bytes.Cut(raw, []byte("\r\n\r\n"))
			fields := strings.Fields(string(head[:bytes.IndexByte(head, '\r')]))
			req, err := http.NewRequest(fields[0], "http://"+addr+fields[1], bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if st.kind == opSetTTL {
				req.Header.Set("X-Talus-TTL", fmt.Sprint(ttlSeconds))
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			// The second DELETE of a key and the GET after it differ by
			// design between the two clients' turns; compare like with like.
			if st.kind == opDelete {
				if (rep.status != 204 && rep.status != 404) || (resp.StatusCode != 204 && resp.StatusCode != 404) {
					t.Errorf("entry %d step %d: DELETE status %d (lean) %d (net/http)", entry, i, rep.status, resp.StatusCode)
				}
				continue
			}
			if rep.status != resp.StatusCode || !bytes.Equal(rep.body, want) {
				t.Errorf("entry %d step %d: lean %d %q, net/http %d %q", entry, i, rep.status, rep.body, resp.StatusCode, want)
			}
			if got, want := string(rep.node), resp.Header.Get("X-Talus-Node"); got != want {
				t.Errorf("entry %d step %d: X-Talus-Node %q, net/http %q", entry, i, got, want)
			}
			if st.kind == opGet && rep.status == 200 && !checkValue(rep.body, st.key, 1, int(in.sizes[st.key])) {
				t.Errorf("entry %d step %d: body is not version 1 of key %d", entry, i, st.key)
			}
		}
	}
	http.DefaultClient.CloseIdleConnections()
}

// The names the program emits, the names BENCHMARK.json declares and
// the names README.md defines must be one set.
func TestMetricNamesAgree(t *testing.T) {
	mf, err := readManifest("")
	if err != nil {
		t.Fatal(err)
	}
	wantE2E, wantLayer := mf.metricNames()

	cfg := smoke(t, "http-hot")
	names := func(res result) []string {
		var out []string
		for name, v := range res.Metrics {
			if v.Unit == "" {
				t.Errorf("%s has no unit", name)
			}
			out = append(out, name)
		}
		slices.Sort(out)
		return out
	}
	measured, err := runMeasured(cfg, rigOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := names(measured); !slices.Equal(got, wantE2E) {
		t.Errorf("end-to-end metrics emitted %v, BENCHMARK.json has %v", got, wantE2E)
	}
	traced, err := runTraced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(traced); !slices.Equal(got, wantLayer) {
		t.Errorf("per-layer metrics emitted %v, BENCHMARK.json has %v", got, wantLayer)
	}
	for _, e := range mf.EndToEnd {
		if measured.Metrics[e.Name].Unit != e.Unit {
			t.Errorf("%s: emitted in %q, declared in %q", e.Name, measured.Metrics[e.Name].Unit, e.Unit)
		}
	}
	for _, p := range mf.PerLayer {
		if traced.Metrics[p.Name].Unit != p.Unit {
			t.Errorf("%s: emitted in %q, declared in %q", p.Name, traced.Metrics[p.Name].Unit, p.Unit)
		}
	}
	if _, err := os.Stat(cfg.outDir + "/trace-http-hot.json"); err != nil {
		t.Errorf("traced run left no trace file: %v", err)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, mm := range regexp.MustCompile("(?m)^\\| `([a-z0-9_.]+)` \\|").FindAllSubmatch(readme, -1) {
		documented = append(documented, string(mm[1]))
	}
	slices.Sort(documented)
	documented = slices.Compact(documented)
	all := slices.Concat(wantE2E, wantLayer)
	slices.Sort(all)
	if !slices.Equal(documented, all) {
		t.Errorf("README.md defines %v\nBENCHMARK.json has %v", documented, all)
	}
	var declared []string
	for _, w := range mf.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, s := range specs {
		have = append(have, s.name)
		if !bytes.Contains(readme, []byte("`"+s.name+"`")) {
			t.Errorf("README.md does not mention workload %s", s.name)
		}
	}
	if !slices.Equal(declared, have) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", declared, have)
	}
}
func TestBusyPortIsAStartUpError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:39302")
	if err != nil {
		t.Skip(err)
	}
	defer ln.Close()
	s, _ := specByName("cluster-hop")
	in := generate(s, 1, 1, 0, 0)
	if _, err := newRig(s, in, 1, rigOpts{basePort: testBasePort}); err == nil {
		t.Fatal("newRig bound a port that is taken")
	} else {
		t.Log(err)
	}
}

// metricNames lists a manifest's metric names, sorted.
func (m *manifest) metricNames() (endToEnd, perLayer []string) {
	for _, e := range m.EndToEnd {
		endToEnd = append(endToEnd, e.Name)
	}
	for _, p := range m.PerLayer {
		perLayer = append(perLayer, p.Name)
	}
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	return endToEnd, perLayer
}
