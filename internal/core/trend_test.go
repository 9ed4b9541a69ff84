package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestMedianGroups checks group counts, remainder distribution, and
// the Γ = √K default.
func TestMedianGroups(t *testing.T) {
	for _, tc := range []struct {
		n, gamma  int
		wantCount int
	}{
		{100, 0, 10}, // default √100
		{100, 10, 10},
		{50, 0, 7}, // ⌊√50⌋
		{10, 3, 3},
		{11, 3, 3}, // remainder absorbed
		{2, 5, 2},  // gamma capped at n
		{1, 0, 1},
		{0, 0, 0},
	} {
		in := make([]float64, tc.n)
		for i := range in {
			in[i] = float64(i)
		}
		got := MedianGroups(in, tc.gamma)
		if len(got) != tc.wantCount {
			t.Errorf("MedianGroups(n=%d, Γ=%d): %d groups, want %d", tc.n, tc.gamma, len(got), tc.wantCount)
		}
	}
}

// TestMedianGroupsValues pins a hand-computed case.
func TestMedianGroupsValues(t *testing.T) {
	in := []float64{1, 2, 100, 4, 5, 6} // outlier in group 1
	got := MedianGroups(in, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("MedianGroups = %v, want [2 5]", got)
	}
}

// TestMedianGroupsRobustToOutliers is the reason the preprocessing
// exists: one wild OWD per group must not move the medians.
func TestMedianGroupsRobustToOutliers(t *testing.T) {
	clean := make([]float64, 100)
	dirty := make([]float64, 100)
	for i := range clean {
		clean[i] = 1 + 0.01*float64(i)
		dirty[i] = clean[i]
	}
	for g := 0; g < 10; g++ {
		dirty[g*10+3] = 1e6 // one outlier per group
	}
	mc := MedianGroups(clean, 10)
	md := MedianGroups(dirty, 10)
	for i := range mc {
		if math.Abs(mc[i]-md[i]) > 0.011 {
			t.Fatalf("group %d median moved from %v to %v under outliers", i, mc[i], md[i])
		}
	}
}

// TestPCTExtremes checks the statistic's documented range behavior.
func TestPCTExtremes(t *testing.T) {
	inc := []float64{1, 2, 3, 4, 5}
	dec := []float64{5, 4, 3, 2, 1}
	flat := []float64{3, 3, 3, 3}
	if got := PCT(inc); got != 1 {
		t.Errorf("PCT(increasing) = %v, want 1", got)
	}
	if got := PCT(dec); got != 0 {
		t.Errorf("PCT(decreasing) = %v, want 0", got)
	}
	if got := PCT(flat); got != 0 {
		t.Errorf("PCT(flat) = %v, want 0 (no strict increases)", got)
	}
	if got := PCT([]float64{7}); got != 0.5 {
		t.Errorf("PCT(singleton) = %v, want the indifferent 0.5", got)
	}
}

// TestPDTExtremes checks the statistic's documented range behavior.
func TestPDTExtremes(t *testing.T) {
	if got := PDT([]float64{1, 2, 3, 4}); got != 1 {
		t.Errorf("PDT(monotone up) = %v, want 1", got)
	}
	if got := PDT([]float64{4, 3, 2, 1}); got != -1 {
		t.Errorf("PDT(monotone down) = %v, want -1", got)
	}
	if got := PDT([]float64{2, 2, 2}); got != 0 {
		t.Errorf("PDT(constant) = %v, want 0", got)
	}
	if got := PDT([]float64{1, 2, 1}); got != 0 {
		t.Errorf("PDT(up-down) = %v, want 0", got)
	}
}

// TestQuickMetricBounds: PCT ∈ [0,1], PDT ∈ [−1,1] for any input.
func TestQuickMetricBounds(t *testing.T) {
	f := func(raw []float64) bool {
		med := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// OWDs are seconds; clamp to physical magnitudes so the
				// PDT denominator cannot overflow.
				med = append(med, math.Mod(v, 1e6))
			}
		}
		p, d := PCT(med), PDT(med)
		return p >= 0 && p <= 1 && d >= -1 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPCTUnderNull: for i.i.d. noise, PCT concentrates around 0.5
// — the calibration fact behind the zone thresholds.
func TestQuickPCTUnderNull(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var sum float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		med := make([]float64, 10)
		for j := range med {
			med[j] = rng.Float64()
		}
		sum += PCT(med)
	}
	if mean := sum / trials; mean < 0.45 || mean > 0.55 {
		t.Fatalf("null PCT mean %v, want ≈0.5", mean)
	}
}

// TestClassifyOWDs covers the three-zone combination logic.
func TestClassifyOWDs(t *testing.T) {
	mkTrend := func(slope float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 1 + slope*float64(i)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		owds []float64
		cfg  TrendConfig
		want StreamType
	}{
		{"strong trend", mkTrend(0.01, 100), TrendConfig{}, TypeIncreasing},
		{"no trend", mkTrend(0, 100), TrendConfig{}, TypeNonIncreasing},
		{"decreasing", mkTrend(-0.01, 100), TrendConfig{}, TypeNonIncreasing},
		{"too short", mkTrend(0.01, 1), TrendConfig{}, TypeDiscard},
		{"empty", nil, TrendConfig{}, TypeDiscard},
		{"pdt only, trend", mkTrend(0.01, 100), TrendConfig{DisablePCT: true}, TypeIncreasing},
		// PCT 8/9 increasing, PDT 3/13 ambiguous: PCT alone decides.
		{"pct decides", expandGroups([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 3}), TrendConfig{}, TypeIncreasing},
		// Without PCT's vote the same stream has none.
		{"pct decides, pct disabled", expandGroups([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 3}), TrendConfig{DisablePCT: true}, TypeDiscard},
		// PCT 1/9 non-increasing, PDT 4/20 ambiguous.
		{"pct decides, falling", expandGroups([]float64{0, 12, 11, 10, 9, 8, 7, 6, 5, 4}), TrendConfig{}, TypeNonIncreasing},
		{"pct decides, falling, pct disabled", expandGroups([]float64{0, 12, 11, 10, 9, 8, 7, 6, 5, 4}), TrendConfig{DisablePCT: true}, TypeDiscard},
		// PCT 5/9 ambiguous, PDT 50/58 increasing: PDT alone decides.
		{"pdt decides", expandGroups([]float64{0, 10, 9, 20, 19, 30, 29, 40, 39, 50}), TrendConfig{}, TypeIncreasing},
	} {
		got, m := ClassifyOWDs(tc.owds, tc.cfg)
		if got != tc.want {
			t.Errorf("%s: classified %v (PCT %.2f PDT %.2f), want %v", tc.name, got, m.PCT, m.PDT, tc.want)
		}
	}
}

// TestClassifyConflictDiscards constructs a series whose PCT screams
// increasing while PDT denies any net rise — the classifier must
// discard rather than guess.
func TestClassifyConflictDiscards(t *testing.T) {
	// Mostly ascending pairs but a large terminal collapse: PCT high,
	// PDT strongly negative.
	med := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, -50}
	owds := expandGroups(med)
	got, m := ClassifyOWDs(owds, TrendConfig{})
	if m.PCT <= 0.6 || m.PDT >= 0.15 {
		t.Skipf("construction did not produce a conflict (PCT %.2f PDT %.2f)", m.PCT, m.PDT)
	}
	if got != TypeDiscard {
		t.Fatalf("conflicting metrics classified %v, want discard", got)
	}
}

// expandGroups turns a desired median series into a raw OWD series
// whose Γ=len(med) groups have exactly those medians.
func expandGroups(med []float64) []float64 {
	var out []float64
	for _, m := range med {
		for i := 0; i < 10; i++ {
			out = append(out, m)
		}
	}
	return out
}

// TestClassifySingleThresholdMode: setting NonIncreasing = Increasing
// collapses the ambiguous band (the Fig. 9 configuration).
func TestClassifySingleThresholdMode(t *testing.T) {
	med := make([]float64, 100)
	for i := range med {
		med[i] = 1 + 0.001*float64(i) // mild trend: PDT ≈ 1 here (no noise)
	}
	cfg := TrendConfig{DisablePCT: true, PDTIncreasing: 0.99, PDTNonIncreasing: 0.99}
	got, m := ClassifyOWDs(med, cfg)
	if got != TypeIncreasing {
		t.Fatalf("noise-free trend with PDT %.3f at threshold 0.99 classified %v", m.PDT, got)
	}
	_ = m
	// Dip a whole median group (values 50–59 form group 5 of Γ=10) so
	// the median series is not monotone: PDT drops strictly below 1 and
	// a threshold of 0.995 lands the stream in the non-increasing zone.
	for i := 50; i < 60; i++ {
		med[i] = med[40] - 0.01
	}
	cfg.PDTIncreasing, cfg.PDTNonIncreasing = 0.995, 0.995
	got, m = ClassifyOWDs(med, cfg)
	if got != TypeNonIncreasing {
		t.Fatalf("threshold 0.995 classified %v (PDT %.3f), want non-increasing", got, m.PDT)
	}
}

// TestZone checks the three-zone helper directly.
func TestZone(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{0.7, +1}, {0.66, 0}, {0.5, 0}, {0.45, 0}, {0.44, -1},
	} {
		if got := zone(tc.v, 0.66, 0.45); got != tc.want {
			t.Errorf("zone(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestStreamTypeString covers the enum formatting.
func TestStreamTypeString(t *testing.T) {
	if TypeIncreasing.String() != "I" || TypeNonIncreasing.String() != "N" || TypeDiscard.String() != "discard" {
		t.Error("stream type names changed")
	}
	if StreamType(42).String() == "" {
		t.Error("unknown stream type formats empty")
	}
}
