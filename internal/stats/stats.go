// Package stats provides the small set of order and moment statistics
// the measurement methodology and its evaluation need: medians (stream
// preprocessing), percentiles and CDFs (variability analysis, §VI),
// coefficients of variation (§V-A), and duration-weighted means
// (Eq. 11, the MRTG comparison).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when
// fewer than two samples are given.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// CoV returns the coefficient of variation (standard deviation over
// mean). It returns 0 when the mean is 0.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Median returns the median of xs without modifying it. It returns 0
// for an empty slice. For even lengths it returns the mean of the two
// central order statistics.
func Median(xs []float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between order statistics. It panics on an empty
// slice or out-of-range p: percentiles of nothing are a caller bug.
func Percentile(xs []float64, p float64) float64 {
	return Percentiles(xs, []float64{p})[0]
}

// Percentiles evaluates several percentiles in one sort. Empty ps
// returns an empty slice, whatever xs is.
func Percentiles(xs []float64, ps []float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 && len(ps) > 0 {
		panic("stats: percentile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		if !(p >= 0 && p <= 100) { // NaN too
			panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
		}
		pos := p / 100 * float64(len(s)-1)
		lo := int(math.Floor(pos))
		out[i] = s[lo]
		if frac := pos - float64(lo); frac > 0 {
			out[i] = s[lo]*(1-frac) + s[lo+1]*frac
		}
	}
	return out
}

// WeightedMean returns Σ wᵢxᵢ / Σ wᵢ. It panics if the slices differ in
// length, and returns 0 when the total weight is 0.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic(fmt.Sprintf("stats: weighted mean: %d values vs %d weights", len(xs), len(ws)))
	}
	var sum, wsum float64
	for i, x := range xs {
		sum += x * ws[i]
		wsum += ws[i]
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// MinMax returns the minimum and maximum of xs. It panics on an empty
// slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: min/max of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}
