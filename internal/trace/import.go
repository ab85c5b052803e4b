package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// External trace import: converters from two widely used interchange
// formats into this package's version-2 trace format, so recorded
// streams from other simulators can drive the same monitor → hull →
// Talus pipeline as the built-in generators (talus-sim mix -trace).

// champSimRecordSize is the fixed size of one ChampSim instruction
// record (trace_instr_format_t): ip, branch flags, register lists, two
// destination memory operands, four source memory operands.
const champSimRecordSize = 64

// Byte offsets of the memory-operand arrays inside a ChampSim record.
const (
	champSimDestOff = 16 // destination_memory[2], little-endian u64 each
	champSimSrcOff  = 32 // source_memory[4], little-endian u64 each
)

// champSimLineShift converts ChampSim's byte addresses to 64-byte cache
// line addresses, the unit every consumer of this package works in.
const champSimLineShift = 6

// ImportChampSim streams a raw ChampSim instruction trace from r into w
// as single-partition records. Each 64-byte instruction record carries
// up to four source (load) and two destination (store) memory operands;
// zero operands are empty slots. Operands are emitted in access order —
// sources (execute) before destinations (retire) — as cache-line
// addresses (byte address >> 6). Returns the number of records
// appended. A trailing partial instruction record is corruption, not
// end of stream.
//
// ChampSim distributes traces xz- or gzip-compressed; decompress
// before importing (gzip works with compress/gzip, xz needs the
// external xz tool).
func ImportChampSim(r io.Reader, w *Writer) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var rec [champSimRecordSize]byte
	var appended int64
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return appended, nil
			}
			return appended, fmt.Errorf("trace: champsim record %d: %w", appended, errCorrupt(err))
		}
		for i := 0; i < 4; i++ {
			addr := binary.LittleEndian.Uint64(rec[champSimSrcOff+8*i:])
			if addr == 0 {
				continue
			}
			if err := w.Append(0, addr>>champSimLineShift); err != nil {
				return appended, err
			}
			appended++
		}
		for i := 0; i < 2; i++ {
			addr := binary.LittleEndian.Uint64(rec[champSimDestOff+8*i:])
			if addr == 0 {
				continue
			}
			if err := w.Append(0, addr>>champSimLineShift); err != nil {
				return appended, err
			}
			appended++
		}
	}
}

// ParseText reads the plain-text interchange format: one record per
// line, `addr[,partition]`, where addr is a line address in decimal or
// 0x-prefixed hex and partition defaults to 0. Blank lines and
// #-comments are skipped. Returns the records and the partition count
// (highest partition seen + 1, at least 1) — ready to hand to Create,
// which needs the count before the first record.
func ParseText(r io.Reader) ([]Record, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var recs []Record
	parts := 1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		addrStr, partStr, hasPart := strings.Cut(line, ",")
		addr, err := strconv.ParseUint(strings.TrimSpace(addrStr), 0, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("trace: text line %d: bad address %q", lineNo, strings.TrimSpace(addrStr))
		}
		p := 0
		if hasPart {
			p, err = strconv.Atoi(strings.TrimSpace(partStr))
			if err != nil || p < 0 || p >= maxPartitions {
				return nil, 0, fmt.Errorf("trace: text line %d: bad partition %q", lineNo, strings.TrimSpace(partStr))
			}
		}
		if p+1 > parts {
			parts = p + 1
		}
		recs = append(recs, Record{P: p, Addr: addr})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return recs, parts, nil
}
