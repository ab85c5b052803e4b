package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
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
// talus-sim record writes.
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
