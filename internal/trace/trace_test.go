package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"talus/internal/workload"
)

// legacyV1 is a version-1 trace of the addresses 7, 8, 9, byte for byte
// as the flat writer (deleted in PR 15) produced it. Such files exist
// outside the repo, so the reader keeps accepting them.
var legacyV1 = []byte{
	'T', 'A', 'L', 'U', 'S', 'T', 'R', 'C',
	1, 0, 0, 0, // version
	3, 0, 0, 0, 0, 0, 0, 0, // count
	7, 0, 0, 0, 0, 0, 0, 0,
	8, 0, 0, 0, 0, 0, 0, 0,
	9, 0, 0, 0, 0, 0, 0, 0,
}

// flatV2 encodes addrs as a one-partition trace, the shape
// misscurve -trace-to writes.
func flatV2(t *testing.T, addrs []uint64) []byte {
	t.Helper()
	recs := make([]Record, len(addrs))
	for i, a := range addrs {
		recs[i] = Record{Addr: a}
	}
	return writeV2(t, recs, 1)
}

// readFlat decodes raw and returns its addresses in stream order.
func readFlat(raw []byte) ([]uint64, error) {
	tr, err := ReadAll(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return tr.Flat(), nil
}

func TestRoundTrip(t *testing.T) {
	addrs := []uint64{0, 1, 1 << 40, ^uint64(0), 42}
	got, err := readFlat(flatV2(t, addrs))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, addrs) {
		t.Fatalf("round trip = %v, want %v", got, addrs)
	}
}

func TestEmptyTrace(t *testing.T) {
	got, err := readFlat(flatV2(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty trace, got %d entries", len(got))
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := readFlat([]byte("NOTATRCE-----------------")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncated(t *testing.T) {
	if _, err := readFlat(legacyV1[:len(legacyV1)-4]); err == nil {
		t.Fatal("truncated trace must fail")
	}
	if _, err := readFlat(legacyV1[:6]); err == nil {
		t.Fatal("truncated header must fail")
	}
}

func TestBadVersion(t *testing.T) {
	raw := slices.Clone(legacyV1)
	raw[8] = 99 // corrupt version byte
	if _, err := readFlat(raw); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	addrs := []uint64{7, 8, 9}
	if err := os.WriteFile(path, flatV2(t, addrs), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Flat(); !slices.Equal(got, addrs) {
		t.Fatalf("got %v", got)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestCapture(t *testing.T) {
	i := uint64(0)
	next := func() uint64 { i++; return i }
	got := Capture(next, 5)
	for j, v := range got {
		if v != uint64(j+1) {
			t.Fatalf("Capture = %v", got)
		}
	}
}

// --- version-2 partitioned format ---------------------------------------

func writeV2(t *testing.T, recs []Record, numPartitions int, opts ...WriterOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, numPartitions, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r.P, r.Addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sampleRecords() []Record {
	return []Record{
		{0, 100}, {0, 101}, {1, 1 << 40}, {0, 99}, {2, 0},
		{1, 1<<40 + 64}, {2, ^uint64(0)}, {2, 5}, {0, 102},
	}
}

func TestV2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []WriterOption
	}{
		{"plain", nil},
		{"gzip", []WriterOption{WithGzip()}},
		{"meta", []WriterOption{WithApps([]AppMeta{
			{Name: "a", APKI: 1, CPIBase: 2, MLP: 3},
			{Name: "b", APKI: 4, CPIBase: 5, MLP: 6},
			{Name: "", APKI: 0, CPIBase: 0, MLP: 0},
		})}},
		{"gzip+meta", []WriterOption{WithGzip(), WithApps(make([]AppMeta, 3))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := sampleRecords()
			raw := writeV2(t, recs, 3, tc.opts...)
			tr, err := ReadAll(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if tr.NumPartitions() != 3 {
				t.Fatalf("partitions = %d, want 3", tr.NumPartitions())
			}
			if len(tr.Records) != len(recs) {
				t.Fatalf("records = %d, want %d", len(tr.Records), len(recs))
			}
			for i := range recs {
				if tr.Records[i] != recs[i] {
					t.Fatalf("record %d = %+v, want %+v", i, tr.Records[i], recs[i])
				}
			}
		})
	}
}

func TestV2Meta(t *testing.T) {
	apps := []AppMeta{{Name: "mcf", APKI: 25, CPIBase: 0.8, MLP: 1.3}, {Name: "lbm", APKI: 34, CPIBase: 0.5, MLP: 3.5}}
	raw := writeV2(t, []Record{{0, 1}, {1, 2}}, 2, WithApps(apps))
	tr, err := ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range apps {
		got, ok := tr.Meta(p)
		if !ok || got != want {
			t.Fatalf("meta %d = %+v (ok=%v), want %+v", p, got, ok, want)
		}
	}
	// A meta-less trace reports none.
	tr2, err := ReadAll(bytes.NewReader(writeV2(t, []Record{{0, 1}}, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr2.Meta(0); ok {
		t.Fatal("meta reported on a meta-less trace")
	}
}

func TestV2GzipCompresses(t *testing.T) {
	// A sequential scan should delta-encode to ~1 byte/record and then
	// gzip far below the plain encoding.
	recs := make([]Record, 1<<14)
	for i := range recs {
		recs[i] = Record{P: 0, Addr: uint64(i)}
	}
	plain := writeV2(t, recs, 1)
	gz := writeV2(t, recs, 1, WithGzip())
	if len(plain) > 3*len(recs) {
		t.Fatalf("delta encoding too fat: %d bytes for %d records", len(plain), len(recs))
	}
	if len(gz) >= len(plain)/10 {
		t.Fatalf("gzip did not compress a scan: %d vs %d bytes", len(gz), len(plain))
	}
}

func TestV2Truncated(t *testing.T) {
	raw := writeV2(t, sampleRecords(), 3)
	// Chopping mid-record must error, not silently shorten the trace...
	if _, err := ReadAll(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated v2 trace must fail")
	}
	// ...and chopping the header must error too.
	if _, err := ReadAll(bytes.NewReader(raw[:13])); err == nil {
		t.Fatal("truncated v2 header must fail")
	}
}

func TestV2BadFlags(t *testing.T) {
	raw := writeV2(t, []Record{{0, 1}}, 1)
	raw[12] |= 0x80 // set an unknown flag bit
	if _, err := ReadAll(bytes.NewReader(raw)); !errors.Is(err, ErrBadFlags) {
		t.Fatalf("err = %v, want ErrBadFlags", err)
	}
}

func TestV2BadPartition(t *testing.T) {
	if _, err := NewWriter(io.Discard, 0); err == nil {
		t.Fatal("0 partitions must fail")
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, 1); err == nil {
		t.Fatal("out-of-range partition must fail")
	}
	if _, err := NewWriter(io.Discard, 2, WithApps(make([]AppMeta, 3))); err == nil {
		t.Fatal("meta/partition count mismatch must fail")
	}
}

func TestReadLegacyThroughReader(t *testing.T) {
	tr, err := ReadAll(bytes.NewReader(legacyV1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Version != Version1 || tr.NumPartitions() != 1 || len(tr.Records) != 3 {
		t.Fatalf("header = %+v, %d records", tr.Header, len(tr.Records))
	}
	for i, r := range tr.Records {
		if r.P != 0 || r.Addr != uint64(7+i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestTraceHelpers(t *testing.T) {
	raw := writeV2(t, sampleRecords(), 3)
	tr, err := ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.Counts()
	if counts[0] != 4 || counts[1] != 2 || counts[2] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	p0 := tr.PartitionStream(0)
	want := []uint64{100, 101, 99, 102}
	if len(p0) != len(want) {
		t.Fatalf("p0 = %v", p0)
	}
	for i := range want {
		if p0[i] != want[i] {
			t.Fatalf("p0 = %v, want %v", p0, want)
		}
	}
	if len(tr.Flat()) != len(tr.Records) {
		t.Fatalf("flat length %d", len(tr.Flat()))
	}
}

func TestReplayPattern(t *testing.T) {
	r, err := NewReplay([]uint64{5, 6, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.Footprint() != 3 {
		t.Fatalf("footprint = %d, want 3", r.Footprint())
	}
	got := make([]uint64, 6)
	for i := range got {
		got[i] = r.Next(nil)
	}
	want := []uint64{5, 6, 5, 7, 5, 6} // wraps around
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay = %v, want %v", got, want)
		}
	}
	// Clone restarts; the original keeps its position.
	c := r.Clone()
	if c.(*Replay).Next(nil) != 5 || r.Next(nil) != 5 {
		t.Fatal("clone position not independent")
	}
	if _, err := NewReplay(nil); err == nil {
		t.Fatal("empty replay must fail")
	}
}

func TestSpecsAndAppSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mix.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, 2, WithApps([]AppMeta{
		{Name: "alpha", APKI: 11, CPIBase: 0.6, MLP: 2.5},
		{Name: "beta"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Partition 1 reuses partition 0's address 1: private spaces, so the
	// two must NOT alias when the trace is flattened into one app.
	for _, r := range []Record{{0, 1}, {1, 1}, {0, 2}, {1, 1}} {
		if err := w.Append(r.P, r.Addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := tr.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Name != "alpha" || specs[0].APKI != 11 {
		t.Fatalf("spec 0 = %+v", specs[0])
	}
	// Missing meta fields fall back to defaults.
	if specs[1].Name != "beta" || specs[1].APKI != DefaultAPKI {
		t.Fatalf("spec 1 = %+v", specs[1])
	}
	p := specs[1].Build()
	if p.Next(nil) != 1 || p.Next(nil) != 1 || p.Footprint() != 1 {
		t.Fatal("partition replay wrong")
	}

	// AppSpec flattens a multi-partition trace, offsetting each
	// partition into a disjoint subspace (addresses were recorded in
	// private per-partition spaces) and ignoring its meta.
	spec, err := AppSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.APKI != DefaultAPKI {
		t.Fatalf("flattened spec kept single-app meta: %+v", spec)
	}
	flat := spec.Build()
	want := []uint64{1 | 1<<56, 1 | 2<<56, 2 | 1<<56, 1 | 2<<56}
	for i, a := range want {
		if got := flat.Next(nil); got != a {
			t.Fatalf("flat replay %d = %#x, want %#x", i, got, a)
		}
	}
	// Partition 0's line 1 and partition 1's line 1 are different lines:
	// footprint counts 3 distinct addresses, not 2 aliased ones.
	if flat.Footprint() != 3 {
		t.Fatalf("flattened footprint = %d, want 3 (partition spaces aliased?)", flat.Footprint())
	}
	// The partition offsets must survive the feeders' own per-app OR
	// offset (bits 48–55): distinct (partition, addr) pairs stay
	// distinct after | space, for any plausible app slot.
	for slot := uint64(1); slot <= 8; slot++ {
		seen := map[uint64]struct{}{}
		for _, a := range []uint64{1 | 1<<56, 1 | 2<<56, 2 | 1<<56} {
			seen[a|slot<<48] = struct{}{}
		}
		if len(seen) != 3 {
			t.Fatalf("slot %d: partition spaces alias under the feeder offset", slot)
		}
	}
	// Resolve goes through the registered "trace" source.
	rspec, err := workload.Resolve("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if rspec.Build().Next(nil) != 1|1<<56 {
		t.Fatal("resolved trace spec replay wrong")
	}

	// A single-partition trace flattens raw (no offset) and keeps meta.
	single := filepath.Join(dir, "single.trc")
	sf, err := os.Create(single)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewWriter(sf, 1, WithApps([]AppMeta{{Name: "solo", APKI: 3, CPIBase: 0.4, MLP: 1.5}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(0, 42); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	sspec, err := AppSpec(single)
	if err != nil {
		t.Fatal(err)
	}
	if sspec.Name != "solo" || sspec.APKI != 3 || sspec.Build().Next(nil) != 42 {
		t.Fatalf("single-partition spec = %+v", sspec)
	}
}

func TestPartitionStreams(t *testing.T) {
	raw := writeV2(t, sampleRecords(), 3)
	tr, err := ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	streams := tr.PartitionStreams()
	for p := range streams {
		want := tr.PartitionStream(p)
		if len(streams[p]) != len(want) {
			t.Fatalf("partition %d: %v vs %v", p, streams[p], want)
		}
		for i := range want {
			if streams[p][i] != want[i] {
				t.Fatalf("partition %d: %v vs %v", p, streams[p], want)
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(addrs []uint64) bool {
		got, err := readFlat(flatV2(t, addrs))
		return err == nil && slices.Equal(got, addrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAppSpecRejectsHighBitAddresses: flattened multi-partition replay
// tags partitions in bits 56–63 by OR, which only stays collision-free
// while recorded addresses leave those bits clear — e.g. a re-recorded
// flattened trace would alias silently, so it must be rejected.
func TestAppSpecRejectsHighBitAddresses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hi.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, 1|1<<56); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := AppSpec(path); err == nil || !strings.Contains(err.Error(), "bits 56-63") {
		t.Fatalf("AppSpec = %v, want high-bit rejection", err)
	}
	// Per-partition specs still work on the same trace.
	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Specs(); err != nil {
		t.Fatal(err)
	}
}
