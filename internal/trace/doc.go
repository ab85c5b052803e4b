// Package trace records and replays LLC access streams in a compact
// binary format. A trace is one record sequence — (partition, line
// address) in stream order — and it serves three purposes: driving the
// simulator from recorded rather than synthetic streams (talus-sim
// adaptive -trace replays one exactly, talus-sim mix -trace makes each
// partition an app), capturing the serving store's live traffic, and
// exchanging streams with external tools (ImportChampSim, ParseText).
// Because Talus is blind to individual lines and driven only by the
// miss curve (paper §III), any recorded stream realizing a curve
// exercises Talus faithfully, and a trace replayed one access per
// record is bit-for-bit equivalent to the live generator run it
// captured.
//
// A trace file is written one way, Create → Append → Close, and read
// one way, OpenFile → All → Close; NewWriter and NewReader are the same
// codec over any io.Writer or io.Reader. This package is only the
// format, which is also what the serving store records its traffic in.
// Turning a trace back into workloads lives in internal/sim, so
// recording links no simulator.
//
// # Format
//
// All integers are little-endian. Every trace starts with an 8-byte
// magic "TALUSTRC" and a uint32 version.
//
// Version 1 (legacy, flat): uint64 count, then count uint64 line
// addresses. No longer written; still read transparently, as one
// partition.
//
// Version 2 (partitioned): a uint32 flags word follows the version.
// If FlagGzip is set, everything after the flags word is a gzip
// stream. The (possibly compressed) body is:
//
//	uvarint numPartitions
//	if FlagMeta: per partition — uvarint name length, name bytes,
//	    three float64s (APKI, CPIBase, MLP)
//	records until EOF: uvarint partition id, zigzag-varint address
//	    delta against the partition's previous address
//
// Delta encoding makes sequential scans cost one byte per record and
// keeps random streams near their entropy; gzip then squeezes the
// pattern structure (a recorded scan compresses ~100×).
package trace
