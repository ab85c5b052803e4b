// Package trace records and replays LLC access streams in a compact
// binary format. Traces serve four purposes: feeding the offline MIN
// simulator (which needs two passes over the same stream), snapshotting
// workload generators for reproducibility, exchanging streams with
// external tools, and — the main one — driving the adaptive runtime
// (sim.RunAdaptiveTraceFile) and the multi-programmed simulator from
// recorded rather than synthetic streams. Because Talus is blind to
// individual lines and driven only by the miss curve (paper §III), any
// recorded stream realizing a curve exercises Talus faithfully, and a
// trace replayed one access per record is bit-for-bit equivalent to the
// live generator run it captured.
//
// This package is only the format, which is also what the serving store
// records its traffic in. Turning a trace back into workloads (a
// replaying workload.Pattern, "trace:<path>" app names) lives in
// internal/sim, so recording links no simulator.
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
