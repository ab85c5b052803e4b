package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, or 0 if xs is empty.
// All elements must be positive; non-positive elements make the result NaN,
// mirroring the mathematical definition rather than silently clamping.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Variance returns the population variance of xs (not the sample variance),
// or 0 for fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation (standard deviation divided by
// mean) of xs. The paper uses CoV of per-core IPC as its unfairness metric
// (Fig. 13). Returns 0 if the mean is zero or xs has fewer than two
// elements.
func CoV(xs []float64) float64 {
	mu := Mean(xs)
	if mu == 0 || len(xs) < 2 {
		return 0
	}
	return StdDev(xs) / mu
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It does not modify xs.
// Returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles returns the values of xs sorted ascending, which is how the
// paper's quantile plots (Fig. 12) present per-mix speedups.
func Quantiles(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// WeightedSpeedup computes the paper's throughput metric:
// (Σ IPC_i/IPCbase_i) / N. Both slices must have equal, non-zero length.
func WeightedSpeedup(ipc, base []float64) float64 {
	if len(ipc) == 0 || len(ipc) != len(base) {
		return 0
	}
	sum := 0.0
	for i := range ipc {
		sum += ipc[i] / base[i]
	}
	return sum / float64(len(ipc))
}

// HarmonicSpeedup computes the paper's fairness-emphasizing metric:
// N / Σ (IPCbase_i/IPC_i). Both slices must have equal, non-zero length.
func HarmonicSpeedup(ipc, base []float64) float64 {
	if len(ipc) == 0 || len(ipc) != len(base) {
		return 0
	}
	sum := 0.0
	for i := range ipc {
		sum += base[i] / ipc[i]
	}
	return float64(len(ipc)) / sum
}
