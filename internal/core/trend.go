// Package core implements SLoPS (self-loading periodic streams), the
// available-bandwidth measurement methodology of Jain & Dovrolis
// (SIGCOMM 2002): one-way-delay trend detection for periodic probing
// streams (PCT and PDT statistics over robust median groups), stream
// and fleet classification including the grey region, and the
// iterative rate-adjustment algorithm that converges to an avail-bw
// range.
//
// The package is pure computation: it never touches clocks, sockets, or
// the simulator, which is what lets one controller drive both the
// simulated prober and the real-network tool.
package core

import (
	"fmt"
	"math"
	"sort"
)

// Decision thresholds. Each metric has an increasing zone, a
// non-increasing zone, and an ambiguous band in between, the structure
// of the pathload tool paper (Jain & Dovrolis, PAM 2002), which the
// journal version summarizes as single thresholds. The zone bounds are
// calibrated to the metrics' sampling distributions at Γ = √K = 10
// median groups:
//
//   - PCT under no trend is Binomial(9, ½)/9, centered on 0.5 with
//     discrete steps of 1/9 ≈ 0.11 — a single threshold at 0.55 fires
//     on half of all trend-free streams. Increasing requires ≥ 6/9
//     rising pairs (null probability 0.25), non-increasing ≤ 4/9.
//   - PDT under no trend is centered on 0, not 0.5: "non-increasing"
//     evidence is a PDT near zero, while a genuine mild overload
//     yields PDT ≈ 0.3–0.4 long before it approaches 1. The increasing
//     bound follows the journal text (0.4); the non-increasing bound
//     sits at 0.15 so that mildly loaded streams are not misread as
//     trend-free.
//
// The PCT bounds are fixed. The PDT bounds are TrendConfig's defaults:
// setting PDTNonIncreasing equal to PDTIncreasing collapses the
// ambiguous band and recovers the journal paper's single-threshold
// description (the Fig. 9 sensitivity sweep).
const (
	DefaultPCTIncreasing    = 0.60
	DefaultPCTNonIncreasing = 0.45
	DefaultPDTIncreasing    = 0.40
	DefaultPDTNonIncreasing = 0.15
)

// TrendConfig controls how a stream's one-way delays are reduced to an
// increasing / non-increasing verdict.
type TrendConfig struct {
	// PDTIncreasing and PDTNonIncreasing bound the PDT zones: the
	// stream looks increasing to PDT above the former, non-increasing
	// below the latter, ambiguous in between. Zero selects defaults.
	PDTIncreasing, PDTNonIncreasing float64
	// DisablePCT ignores the PCT statistic (the Fig. 9 PDT-only
	// sensitivity study).
	DisablePCT bool
}

func (c TrendConfig) withDefaults() TrendConfig {
	if c.PDTIncreasing == 0 {
		c.PDTIncreasing = DefaultPDTIncreasing
	}
	if c.PDTNonIncreasing == 0 {
		c.PDTNonIncreasing = DefaultPDTNonIncreasing
	}
	return c
}

// StreamType is the verdict on a single periodic stream.
type StreamType int

// Stream verdicts. TypeIncreasing ("type I" in the paper) means the
// stream's OWDs show an increasing trend, i.e. the stream rate exceeded
// the avail-bw while the stream was in flight; TypeNonIncreasing
// ("type N") is the opposite; TypeDiscard marks streams that cannot be
// classified (excess loss, sender timing glitches) and must not vote in
// the fleet decision.
const (
	TypeNonIncreasing StreamType = iota
	TypeIncreasing
	TypeDiscard
)

// String names the stream type.
func (t StreamType) String() string {
	switch t {
	case TypeNonIncreasing:
		return "N"
	case TypeIncreasing:
		return "I"
	case TypeDiscard:
		return "discard"
	default:
		return fmt.Sprintf("StreamType(%d)", int(t))
	}
}

// TrendMetrics carries the raw statistics behind a stream verdict, for
// logging and for the evaluation harness.
type TrendMetrics struct {
	PCT     float64 // pairwise comparison test, in [0, 1]
	PDT     float64 // pairwise difference test, in [−1, 1]
	Gamma   int     // number of median groups analyzed
	Medians []float64
}

// medianGroupsInPlace partitions owds into gamma groups of consecutive
// values and returns the median of each group, the paper's
// outlier-robust preprocessing step. If gamma is 0 it defaults to
// √len(owds). Short inputs yield fewer (possibly zero) groups; groups
// absorb the remainder so every sample is used. It sorts each group of
// owds where it lies and builds the medians in dst[:0], or in a fresh
// slice when dst has no room for gamma of them.
func medianGroupsInPlace(owds []float64, gamma int, dst []float64) []float64 {
	n := len(owds)
	if n == 0 {
		return nil
	}
	if gamma <= 0 {
		gamma = int(math.Sqrt(float64(n)))
	}
	if gamma > n {
		gamma = n
	}
	if gamma < 1 {
		gamma = 1
	}
	out := dst[:0]
	if cap(out) < gamma {
		out = make([]float64, 0, gamma)
	}
	// Distribute n samples across gamma groups as evenly as possible.
	base := n / gamma
	extra := n % gamma
	start := 0
	for g := 0; g < gamma; g++ {
		size := base
		if g < extra {
			size++
		}
		group := owds[start : start+size]
		sort.Float64s(group)
		med := group[size/2]
		if size%2 == 0 {
			med = (group[size/2-1] + med) / 2
		}
		out = append(out, med)
		start += size
	}
	return out
}

// PCT returns the pairwise comparison test statistic of the median
// series (Eq. 8): the fraction of consecutive pairs that are strictly
// increasing. Independent OWDs give ≈ 0.5; a strong increasing trend
// approaches 1. It returns 0.5 (the indifferent value) for fewer than
// two medians.
func PCT(medians []float64) float64 {
	if len(medians) < 2 {
		return 0.5
	}
	inc := 0
	for i := 1; i < len(medians); i++ {
		if medians[i] > medians[i-1] {
			inc++
		}
	}
	return float64(inc) / float64(len(medians)-1)
}

// PDT returns the pairwise difference test statistic of the median
// series (Eq. 9): the start-to-end variation relative to the absolute
// per-step variation, in [−1, 1]. Independent OWDs give ≈ 0; a strong
// increasing trend approaches 1. It returns 0 for fewer than two
// medians or when the series is constant.
func PDT(medians []float64) float64 {
	if len(medians) < 2 {
		return 0
	}
	var absSum float64
	for i := 1; i < len(medians); i++ {
		absSum += math.Abs(medians[i] - medians[i-1])
	}
	if absSum == 0 {
		return 0
	}
	return (medians[len(medians)-1] - medians[0]) / absSum
}

// zone maps a metric value to +1 (increasing), −1 (non-increasing), or
// 0 (ambiguous) given its two thresholds.
func zone(v, incr, nonIncr float64) int {
	switch {
	case v > incr:
		return +1
	case v < nonIncr:
		return -1
	default:
		return 0
	}
}

// ClassifyOWDs reduces a stream's one-way delays (seconds, in send
// order; lost packets simply absent) to a stream verdict. Each enabled
// metric votes increasing, non-increasing, or ambiguous; the stream is
// type I when at least one metric votes increasing and none votes
// non-increasing, type N symmetrically, and discarded when the metrics
// conflict or are both ambiguous. Streams too short to form at least
// two median groups are discarded.
func ClassifyOWDs(owds []float64, cfg TrendConfig) (StreamType, TrendMetrics) {
	return ClassifyInPlace(append([]float64(nil), owds...), nil, cfg)
}

// ClassifyInPlace is ClassifyOWDs over caller-owned buffers, for
// callers that classify stream after stream: it reorders owds (each
// median group is sorted where it lies) and builds the medians in
// medians[:0], so with room for Γ medians it allocates nothing. The
// returned TrendMetrics.Medians aliases that buffer.
func ClassifyInPlace(owds, medians []float64, cfg TrendConfig) (StreamType, TrendMetrics) {
	cfg = cfg.withDefaults()
	med := medianGroupsInPlace(owds, 0, medians)
	m := TrendMetrics{PCT: PCT(med), PDT: PDT(med), Gamma: len(med), Medians: med}
	if len(med) < 2 {
		return TypeDiscard, m
	}
	// A disabled PCT abstains.
	var pct int
	if !cfg.DisablePCT {
		pct = zone(m.PCT, DefaultPCTIncreasing, DefaultPCTNonIncreasing)
	}
	pdt := zone(m.PDT, cfg.PDTIncreasing, cfg.PDTNonIncreasing)
	pos, neg := pct > 0 || pdt > 0, pct < 0 || pdt < 0
	switch {
	case pos && !neg:
		return TypeIncreasing, m
	case neg && !pos:
		return TypeNonIncreasing, m
	default:
		return TypeDiscard, m
	}
}
