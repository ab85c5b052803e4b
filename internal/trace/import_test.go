package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const champSimFixture = "testdata/champsim_small.trace"

// champSimOperands extracts the expected line-address stream from a raw
// ChampSim trace the slow, obvious way — an independent reference for
// the streaming importer.
func champSimOperands(t *testing.T, raw []byte) []uint64 {
	t.Helper()
	if len(raw)%champSimRecordSize != 0 {
		t.Fatalf("fixture length %d is not a multiple of %d", len(raw), champSimRecordSize)
	}
	var want []uint64
	for off := 0; off < len(raw); off += champSimRecordSize {
		rec := raw[off : off+champSimRecordSize]
		for j := 0; j < 4; j++ {
			if a := binary.LittleEndian.Uint64(rec[champSimSrcOff+8*j:]); a != 0 {
				want = append(want, a>>champSimLineShift)
			}
		}
		for j := 0; j < 2; j++ {
			if a := binary.LittleEndian.Uint64(rec[champSimDestOff+8*j:]); a != 0 {
				want = append(want, a>>champSimLineShift)
			}
		}
	}
	return want
}

func TestImportChampSim(t *testing.T) {
	raw, err := os.ReadFile(champSimFixture)
	if err != nil {
		t.Fatal(err)
	}
	want := champSimOperands(t, raw)
	if len(want) == 0 {
		t.Fatal("fixture has no memory operands")
	}

	var out bytes.Buffer
	w, err := NewWriter(&out, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ImportChampSim(bytes.NewReader(raw), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) {
		t.Fatalf("imported %d records, reference extraction says %d", n, len(want))
	}
	hdr, recs, err := readAll(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.NumPartitions != 1 {
		t.Fatalf("champsim import produced %d partitions, want 1", hdr.NumPartitions)
	}
	flat := addrsOf(recs)
	if len(flat) != len(want) {
		t.Fatalf("trace has %d records, want %d", len(flat), len(want))
	}
	for i := range flat {
		if flat[i] != want[i] {
			t.Fatalf("record %d: got line %#x, want %#x", i, flat[i], want[i])
		}
	}
}

// TestImportChampSimByteIdentical is the acceptance criterion: importing
// the committed fixture is deterministic (two imports produce identical
// bytes), and the produced trace re-encodes byte-identically through a
// read → write round trip.
func TestImportChampSimByteIdentical(t *testing.T) {
	raw, err := os.ReadFile(champSimFixture)
	if err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		var out bytes.Buffer
		w, err := NewWriter(&out, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ImportChampSim(bytes.NewReader(raw), w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two imports of the same fixture produced different bytes")
	}
	hdr, recs, err := readAll(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if re := writeV2(t, recs, hdr.NumPartitions); !bytes.Equal(a, re) {
		t.Fatalf("re-encode is not byte-identical: %d vs %d bytes", len(a), len(re))
	}
}

func TestImportChampSimTruncated(t *testing.T) {
	raw, err := os.ReadFile(champSimFixture)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := NewWriter(&out, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ImportChampSim(bytes.NewReader(raw[:len(raw)-17]), w); err == nil {
		t.Fatal("truncated champsim trace imported without error")
	}
}

func TestParseText(t *testing.T) {
	in := `
# comment, then a blank line

42
0x1000, 1
  7 , 0
0xdeadbeef,3
`
	recs, parts, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if parts != 4 {
		t.Fatalf("partitions %d, want 4", parts)
	}
	want := []Record{{0, 42}, {1, 0x1000}, {0, 7}, {3, 0xdeadbeef}}
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i := range recs {
		if recs[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, recs[i], want[i])
		}
	}

	// The parsed records must round-trip through the v2 format.
	_, back, err := readAll(bytes.NewReader(writeV2(t, recs, parts)))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range back {
		if r != want[i] {
			t.Fatalf("round-tripped record %d: got %+v, want %+v", i, r, want[i])
		}
	}

	for _, bad := range []string{"zzz", "12,x", "12,-1", "12,70000", "0x,3"} {
		if _, _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseText(%q) accepted", bad)
		}
	}
}

func FuzzImportChampSim(f *testing.F) {
	raw, err := os.ReadFile(filepath.FromSlash(champSimFixture))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:champSimRecordSize])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, champSimRecordSize))
	f.Add(bytes.Repeat([]byte{0xFF}, 3*champSimRecordSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		w, err := NewWriter(&out, 1)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ImportChampSim(bytes.NewReader(data), w)
		if len(data)%champSimRecordSize == 0 && err != nil {
			t.Fatalf("whole-record input rejected: %v", err)
		}
		if len(data)%champSimRecordSize != 0 && err == nil {
			t.Fatal("partial trailing record accepted")
		}
		if err != nil {
			return
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Whatever was imported must read back as a valid trace with
		// exactly the appended record count and no zero line addresses
		// from zero operands.
		_, got, err := readAll(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("imported trace does not read back: %v", err)
		}
		if int64(len(got)) != n {
			t.Fatalf("trace has %d records, importer reported %d", len(got), n)
		}
		want := 0
		for off := 0; off+champSimRecordSize <= len(data); off += champSimRecordSize {
			for j := 0; j < 6; j++ {
				if binary.LittleEndian.Uint64(data[off+champSimDestOff+8*j:]) != 0 {
					want++
				}
			}
		}
		if int(n) != want {
			t.Fatalf("imported %d operands, input contains %d", n, want)
		}
	})
}

func FuzzParseText(f *testing.F) {
	f.Add("42\n0x10,1\n# c\n")
	f.Add("")
	f.Add("9,65535")
	f.Fuzz(func(t *testing.T, s string) {
		recs, parts, err := ParseText(strings.NewReader(s))
		if err != nil {
			return
		}
		if parts < 1 || parts > maxPartitions {
			t.Fatalf("partition count %d out of range", parts)
		}
		for i, r := range recs {
			if r.P < 0 || r.P >= parts {
				t.Fatalf("record %d partition %d outside [0,%d)", i, r.P, parts)
			}
		}
		// Accepted input must be writable and round-trip exactly.
		_, back, err := readAll(bytes.NewReader(writeV2(t, recs, parts)))
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip: %d records, want %d", len(back), len(recs))
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("round trip record %d: %+v != %+v", i, back[i], recs[i])
			}
		}
	})
}
