package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestMean covers the basics and the empty case.
func TestMean(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	} {
		if got := Mean(tc.in); !almost(got, tc.want) {
			t.Errorf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestStdDevAndCoV checks moments on a known sample.
func TestStdDevAndCoV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // classic: mean 5, var 4
	if got := StdDev(xs); !almost(got, 2) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := CoV(xs); !almost(got, 0.4) {
		t.Errorf("CoV = %v, want 0.4", got)
	}
	if got := StdDev([]float64{42}); got != 0 {
		t.Errorf("StdDev of singleton = %v, want 0", got)
	}
	if got := CoV([]float64{0, 0}); got != 0 {
		t.Errorf("CoV of zeros = %v, want 0", got)
	}
}

// TestMedian covers odd, even, and unsorted input, and immutability.
func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(tc.in); !almost(got, tc.want) {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Median mutated its input")
	}
}

// TestPercentile checks interpolation and the extremes.
func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for _, tc := range []struct {
		p, want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	} {
		if got := Percentile(xs, tc.p); !almost(got, tc.want) {
			t.Errorf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("P50 of singleton = %v, want 7", got)
	}
}

// TestPercentilePanics documents the contract.
func TestPercentilePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":        func() { Percentile(nil, 50) },
		"negative":     func() { Percentile([]float64{1}, -1) },
		"over hundred": func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// percentileRef is the rule Percentile used when every call sorted a
// fresh copy: the one-sort Percentiles must reproduce it bit for bit.
func percentileRef(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TestPercentilesMatchPercentile: Percentiles sorts once yet gives,
// in the caller's p order, exactly what per-p Percentile calls and the
// sort-per-call rule give, and leaves xs unsorted.
func TestPercentilesMatchPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+trial%17)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 1e6
		}
		orig := append([]float64(nil), xs...)
		ps := []float64{100, 0, 50, 10, 90, 33.3, 100 * rng.Float64(), 0}
		got := Percentiles(xs, ps)
		for i, p := range ps {
			want := percentileRef(xs, p)
			if got[i] != want || Percentile(xs, p) != want {
				t.Fatalf("n=%d p=%v: Percentiles = %v, Percentile = %v, want %v", len(xs), p, got[i], Percentile(xs, p), want)
			}
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("n=%d: Percentiles reordered its input", len(xs))
			}
		}
	}
	if got := Percentiles(nil, nil); len(got) != 0 {
		t.Errorf("Percentiles(nil, nil) = %v, want empty", got)
	}
	for name, fn := range map[string]func(){
		"empty xs":     func() { Percentiles(nil, []float64{50}) },
		"negative":     func() { Percentiles([]float64{1, 2}, []float64{50, -1}) },
		"over hundred": func() { Percentiles([]float64{1}, []float64{101}) },
		"NaN":          func() { Percentiles([]float64{1, 2}, []float64{math.NaN()}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestQuickPercentileProperties: monotone in p, bounded by min/max, and
// the 50th percentile equals the median.
func TestQuickPercentileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		min, max := MinMax(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev || v < min-1e-9 || v > max+1e-9 {
				return false
			}
			prev = v
		}
		return almost(Percentile(xs, 50), Median(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedMean checks Eq. 11-style duration weighting.
func TestWeightedMean(t *testing.T) {
	if got := WeightedMean([]float64{10, 20}, []float64{1, 3}); !almost(got, 17.5) {
		t.Errorf("WeightedMean = %v, want 17.5", got)
	}
	if got := WeightedMean(nil, nil); got != 0 {
		t.Errorf("WeightedMean(nil) = %v, want 0", got)
	}
	if got := WeightedMean([]float64{5}, []float64{0}); got != 0 {
		t.Errorf("zero-weight mean = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}

// TestQuickWeightedMeanBounds: with positive weights the result lies
// within [min, max] of the values.
func TestQuickWeightedMeanBounds(t *testing.T) {
	f := func(vals []float64, seed int64) bool {
		xs := make([]float64, 0, len(vals))
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		ws := make([]float64, len(xs))
		for i := range ws {
			w := (seed + int64(i)) % 7
			if w < 0 {
				w = -w
			}
			ws[i] = 1 + float64(w)
		}
		m := WeightedMean(xs, ws)
		min, max := MinMax(xs)
		return m >= min-1e-6 && m <= max+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPercentiles checks the multi-percentile helper agrees with the
// single one.
func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	ps := []float64{5, 50, 95}
	got := Percentiles(xs, ps)
	for i, p := range ps {
		if want := Percentile(xs, p); !almost(got[i], want) {
			t.Errorf("Percentiles[%v] = %v, want %v", p, got[i], want)
		}
	}
}

// TestMinMax checks extremes and the panic contract.
func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v want -1,7", min, max)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax(nil) did not panic")
		}
	}()
	MinMax(nil)
}

// TestMedianAgainstSort cross-checks Median against explicit sorting
// for a spread of sizes.
func TestMedianAgainstSort(t *testing.T) {
	for n := 1; n <= 20; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % 100)
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		var want float64
		if n%2 == 1 {
			want = s[n/2]
		} else {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		if got := Median(xs); !almost(got, want) {
			t.Errorf("n=%d: Median = %v, want %v", n, got, want)
		}
	}
}
