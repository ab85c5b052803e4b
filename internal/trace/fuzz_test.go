package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzTraceRoundTrip drives the encoder/decoder pair two ways: encode a
// record stream synthesized from the fuzz input and require a lossless
// round trip, and feed the raw input straight to the reader, which must
// reject or truncate it with an error — never panic or fabricate
// records.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(1), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(3), true)
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint8(255), false)
	seed := writeV2FuzzSeed()
	f.Add(seed, uint8(2), true)

	f.Fuzz(func(t *testing.T, data []byte, np uint8, gz bool) {
		// Arm 1: decoder robustness on arbitrary bytes.
		if hdr, parsed, err := readAll(bytes.NewReader(data)); err == nil {
			// Whatever parsed must re-encode and re-parse identically.
			var buf bytes.Buffer
			w, werr := NewWriter(&buf, hdr.NumPartitions)
			if werr != nil {
				t.Fatalf("re-encode writer: %v", werr)
			}
			for _, r := range parsed {
				if err := w.Append(r.P, r.Addr); err != nil {
					t.Fatalf("re-encode append: %v", err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatalf("re-encode close: %v", err)
			}
			_, again, err := readAll(&buf)
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if len(again) != len(parsed) {
				t.Fatalf("re-decode records %d, want %d", len(again), len(parsed))
			}
			for i := range parsed {
				if parsed[i] != again[i] {
					t.Fatalf("re-decode record %d = %+v, want %+v", i, again[i], parsed[i])
				}
			}
		}

		// Arm 2: synthesize records from the input and round-trip them.
		numPartitions := int(np)%8 + 1
		var recs []Record
		for i := 0; i+9 <= len(data) && len(recs) < 4096; i += 9 {
			recs = append(recs, Record{
				P:    int(data[i]) % numPartitions,
				Addr: binary.LittleEndian.Uint64(data[i+1 : i+9]),
			})
		}
		var opts []WriterOption
		if gz {
			opts = append(opts, WithGzip())
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, numPartitions, opts...)
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		for _, r := range recs {
			if err := w.Append(r.P, r.Addr); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		hdr, got, err := readAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if hdr.NumPartitions != numPartitions {
			t.Fatalf("partitions %d, want %d", hdr.NumPartitions, numPartitions)
		}
		if len(got) != len(recs) {
			t.Fatalf("records %d, want %d", len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
			}
		}

		// A truncated encoding must error, not parse short (only
		// meaningful when at least one record is present to chop).
		if len(recs) > 0 {
			raw := buf.Bytes()
			if _, short, err := readAll(bytes.NewReader(raw[:len(raw)-1])); err == nil && len(short) >= len(recs) {
				t.Fatal("truncated trace parsed all records")
			}
		}
	})
}

// writeV2FuzzSeed builds one valid v2 trace as a corpus seed for the
// decoder-robustness arm.
func writeV2FuzzSeed() []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		panic(err)
	}
	for i := uint64(0); i < 16; i++ {
		if err := w.Append(int(i%2), i*64); err != nil {
			panic(err)
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
