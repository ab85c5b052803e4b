// Package monitor implements the miss-curve monitors the paper relies on
// for predictability (§II-C, §VI-C):
//
//   - SlicedEpochMonitor: the LRU-stack monitor bank, the only one in the
//     repository — requests, the simulator's epochs and the offline
//     profilers all build it. It is the paper's utility monitor (UMON;
//     Qureshi & Patt, MICRO 2006) — a small, hash-sampled auxiliary tag
//     array, LRU within each set, with per-depth hit counters — three
//     times over. LRU's stack property makes one array yield a complete
//     miss curve: a hit at LRU depth d would hit in any cache of more
//     than d ways' worth of capacity. By Theorem 4 an array sampling a
//     fraction r of the stream models a cache 1/r times its own size, so
//     the bank's arrays, 64 ways each at sampling rates 4× apart (at most
//     0.25 for an LLC of 1 024 lines or more), model LLC/4 (sub), the LLC
//     (fine) and 4× the LLC (coarse): the paper's extended-coverage trick
//     for seeing cliffs beyond the LLC size, applied once upward and once
//     downward, where a partition's small allocation needs the finer way
//     granularity. One Observe feeds all three; EpochCurve merges them
//     into one curve and keeps it an EWMA across epochs. The arrays' sets
//     are split into slices, one lock each, so concurrent observers rarely
//     meet.
//   - PolicyMonitor / MultiMonitor: for non-stack policies (SRRIP), one
//     small simulated cache per curve point, each at a different sampling
//     rate — the paper's admittedly impractical 64-point monitors (Fig. 9)
//     that demonstrate Talus is agnostic to replacement policy.
//
// Monitors observe the full (pre-Talus-sampling) access stream of one
// logical partition and convert sampled hit/miss counts back to
// full-stream miss curves by dividing by the sampling rate.
package monitor
