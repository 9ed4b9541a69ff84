package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	pathload "repro"
	"repro/internal/stats"
)

func median(xs []float64) float64 { return stats.Median(xs) }

// quantile is stats.Percentile on a 0–1 scale, and 0 for an empty
// slice: a layer with no spans reports 0 rather than panicking.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 100*q)
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// tailPercentiles are the candidates of the percentile rule, highest
// first, each with the share of samples beyond it as 1/beyond.
var tailPercentiles = []struct {
	pct    float64
	beyond int
}{{99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// highestPercentile applies the reporting rule of the choosing-metrics
// guide: a timing is given as its median plus the highest percentile
// that still has at least ten samples beyond it. It returns 50 when no
// candidate qualifies (fewer than 40 samples).
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n/p.beyond >= 10 {
			return p.pct
		}
	}
	return 50
}

// A timing summarises a sample of durations by the percentile rule.
type timing struct {
	N      int
	P50    float64
	Tail   float64 // value at TailPct
	TailPc float64
}

func summarize(xs []float64) timing {
	pc := highestPercentile(len(xs))
	return timing{N: len(xs), P50: median(xs), Tail: quantile(xs, pc/100), TailPc: pc}
}

// transcriptHash is the determinism fingerprint of a fleet run: a
// SHA-256 over the (path, round)-sorted samples' simulated fields.
// Wall-clock fields are left out, so two runs of one seed must agree
// whatever the host scheduler did.
func transcriptHash(samples []pathload.Sample) string {
	s := append([]pathload.Sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Path != s[j].Path {
			return s[i].Path < s[j].Path
		}
		return s[i].Round < s[j].Round
	})
	h := sha256.New()
	for _, x := range s {
		fmt.Fprintf(h, "%s %d %d %x %x %d %x\n", x.Path, x.Round, int64(x.At),
			math.Float64bits(x.Result.Lo), math.Float64bits(x.Result.Hi),
			int64(x.Result.Elapsed), math.Float64bits(x.Result.Bits))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Run-length rule for micro-probes (SNIPPETS.md, bwprobe): keep taking
// batch samples until the 95 % confidence half-width of the mean is
// within runLengthEps of the mean, or runLengthCap has passed.
const (
	runLengthZ   = 1.96
	runLengthEps = 0.02
	runLengthCap = 2 * time.Second
	runLengthMin = 8 // samples before the rule may stop a probe
	// runLengthCapSmoke replaces the cap in smoke runs, which check that
	// a probe runs, not what it reads.
	runLengthCapSmoke = 20 * time.Millisecond
)

// A microResult is one micro-probe's mean with the error bound it was
// measured to.
type microResult struct {
	Mean   float64
	NEff   int     // samples taken
	EpsEff float64 // achieved z·σ/(√n·mean)
}

// runLength calls sample (one timed batch, returning the per-operation
// figure) until the run-length rule is met or limit has passed.
func runLength(limit time.Duration, sample func() float64) microResult {
	var n int
	var mean, m2 float64 // Welford
	start := time.Now()
	for {
		x := sample()
		n++
		d := x - mean
		mean += d / float64(n)
		m2 += d * (x - mean)
		if n < runLengthMin {
			continue
		}
		eps := relHalfWidth(mean, m2, n)
		if eps < runLengthEps || time.Since(start) > limit {
			return microResult{Mean: mean, NEff: n, EpsEff: eps}
		}
	}
}

func relHalfWidth(mean, m2 float64, n int) float64 {
	if mean == 0 || n < 2 {
		return 0
	}
	sd := math.Sqrt(m2 / float64(n-1))
	return runLengthZ * sd / math.Sqrt(float64(n)) / math.Abs(mean)
}
