// Package curve defines the miss-curve abstraction that all of Talus
// operates on: misses per kilo-instruction (MPKI) as a function of cache
// size. Talus's central claim is that the miss curve is the *only*
// information needed to remove performance cliffs (paper §III), so this
// type is the contract between monitors (which produce curves), the Talus
// core (which convexifies them), and partitioning algorithms (which
// consume them).
//
// Sizes are measured in cache lines throughout (64-byte lines; use
// MBToLines/LinesToMB at presentation boundaries). Sizes are float64 so
// that Theorem 4's scaling transform (which produces fractional sizes such
// as ρ·α) stays exact; concrete cache configurations round to whole lines
// at the last moment.
//
// Distance measures how much two curves differ (normalized L1 over the
// union size range, in [0, 1]) — the epoch-to-epoch churn signal the
// adaptive runtime reports.
package curve
