// Package stats holds the benchmark's summary arithmetic: medians,
// quartile spreads and percentiles that refuse to report a tail they have
// too few samples to see.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile before it is
// reported: p50 needs 20 samples, p99 needs 1000.
const MinBeyond = 10

// Need returns the smallest sample count at which percentile q (in (0,1))
// has MinBeyond samples beyond it.
func Need(q float64) int {
	tail := math.Min(q, 1-q)
	return int(math.Ceil(MinBeyond/tail - 1e-9))
}

// Percentile returns the nearest-rank q-quantile of xs, or an error when
// fewer than Need(q) samples were taken.
func Percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("stats: percentile %v outside (0,1)", q)
	}
	if need := Need(q); len(xs) < need {
		return 0, fmt.Errorf("stats: p%g needs %d samples, have %d", q*100, need, len(xs))
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(rank, 0)], nil
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) (method "exclusive") computes
// them, which is what the acceptance check uses. It needs two samples.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
