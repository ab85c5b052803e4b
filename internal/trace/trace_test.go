package trace

import (
	"bytes"
	"errors"
	"fmt"
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

// readAll drains a trace from r: its header and every record.
func readAll(r io.Reader) (Header, []Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Header{}, nil, err
	}
	var recs []Record
	for rec, err := range tr.All() {
		if err != nil {
			return Header{}, nil, err
		}
		recs = append(recs, rec)
	}
	return tr.Header(), recs, nil
}

// addrsOf returns recs' addresses in stream order.
func addrsOf(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Addr
	}
	return out
}

// readFlat decodes raw and returns its addresses in stream order.
func readFlat(raw []byte) ([]uint64, error) {
	_, recs, err := readAll(bytes.NewReader(raw))
	return addrsOf(recs), err
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
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []uint64
	for rec, err := range r.All() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec.Addr)
	}
	if !slices.Equal(got, addrs) {
		t.Fatalf("got %v", got)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file must fail")
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
			hdr, got, err := readAll(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if hdr.NumPartitions != 3 {
				t.Fatalf("partitions = %d, want 3", hdr.NumPartitions)
			}
			if !slices.Equal(got, recs) {
				t.Fatalf("records = %+v, want %+v", got, recs)
			}
		})
	}
}

func TestV2Meta(t *testing.T) {
	apps := []AppMeta{{Name: "mcf", APKI: 25, CPIBase: 0.8, MLP: 1.3}, {Name: "lbm", APKI: 34, CPIBase: 0.5, MLP: 3.5}}
	raw := writeV2(t, []Record{{0, 1}, {1, 2}}, 2, WithApps(apps))
	hdr, _, err := readAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(hdr.Apps, apps) {
		t.Fatalf("meta = %+v, want %+v", hdr.Apps, apps)
	}
	// A meta-less trace reports none.
	hdr2, _, err := readAll(bytes.NewReader(writeV2(t, []Record{{0, 1}}, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if hdr2.Apps != nil {
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
	if _, _, err := readAll(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated v2 trace must fail")
	}
	// ...and chopping the header must error too.
	if _, _, err := readAll(bytes.NewReader(raw[:13])); err == nil {
		t.Fatal("truncated v2 header must fail")
	}
}

func TestV2BadFlags(t *testing.T) {
	raw := writeV2(t, []Record{{0, 1}}, 1)
	raw[12] |= 0x80 // set an unknown flag bit
	if _, _, err := readAll(bytes.NewReader(raw)); !errors.Is(err, ErrBadFlags) {
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
	hdr, recs, err := readAll(bytes.NewReader(legacyV1))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != Version1 || hdr.NumPartitions != 1 || len(recs) != 3 {
		t.Fatalf("header = %+v, %d records", hdr, len(recs))
	}
	for i, r := range recs {
		if r.P != 0 || r.Addr != uint64(7+i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// TestAllStopsAtError: a read error is yielded once, with a zero
// record, after every record before it, and ends the sequence.
func TestAllStopsAtError(t *testing.T) {
	recs := sampleRecords()
	raw := writeV2(t, recs, 3)
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-1]))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	errs := 0
	for rec, err := range r.All() {
		if err != nil {
			errs++
			if !errors.Is(err, ErrCorrupt) || rec != (Record{}) {
				t.Fatalf("error yield = %+v, %v; want a zero record and ErrCorrupt", rec, err)
			}
			continue
		}
		if errs > 0 {
			t.Fatal("record yielded after the error")
		}
		got = append(got, rec)
	}
	if errs != 1 || !slices.Equal(got, recs[:len(recs)-1]) {
		t.Fatalf("%d errors after %+v; want 1 after %+v", errs, got, recs[:len(recs)-1])
	}
}

// TestCreate: a trace written through Create round-trips through
// OpenFile and All, gzip on and off, and a header Create refuses leaves
// no file behind.
func TestCreate(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	apps := []AppMeta{{Name: "a", APKI: 1}, {Name: "b"}, {}}
	for _, gz := range []bool{false, true} {
		path := filepath.Join(dir, fmt.Sprintf("gzip-%v.trc", gz))
		opts := []WriterOption{WithApps(apps)}
		if gz {
			opts = append(opts, WithGzip())
		}
		w, err := Create(path, 3, opts...)
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
		r, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		for rec, err := range r.All() {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rec)
		}
		r.Close()
		hdr := r.Header()
		if (hdr.Flags&FlagGzip != 0) != gz || !slices.Equal(hdr.Apps, apps) || !slices.Equal(got, recs) {
			t.Fatalf("gzip %v: header %+v, records %+v; want %+v", gz, hdr, got, recs)
		}
	}

	for _, tc := range []struct {
		name string
		n    int
		opts []WriterOption
	}{
		{"0 partitions", 0, nil},
		{"meta mismatch", 2, []WriterOption{WithApps(apps)}},
	} {
		path := filepath.Join(dir, "refused.trc")
		if _, err := Create(path, tc.n, tc.opts...); err == nil {
			t.Fatalf("%s: Create accepted", tc.name)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: refused Create left %s behind (stat: %v)", tc.name, path, err)
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
