package tsstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestDigestExactBelowCapacity: while distinct values fit the budget,
// quantiles are exact order statistics under midpoint interpolation —
// min and max in particular are exact.
func TestDigestExactBelowCapacity(t *testing.T) {
	d := NewDigest(16)
	for _, x := range []float64{5, 1, 3, 2, 4} {
		d.Add(x)
	}
	if got := d.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := d.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := d.Quantile(1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	if got := d.Quantile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got, want := d.Min(), 1.0; got != want {
		t.Errorf("Min = %v, want %v", got, want)
	}
	if got, want := d.Max(), 5.0; got != want {
		t.Errorf("Max = %v, want %v", got, want)
	}
}

// TestDigestEmpty: quantiles and extremes of an empty digest are NaN,
// never a silent zero that could read as "0 b/s avail-bw".
func TestDigestEmpty(t *testing.T) {
	d := NewDigest(0) // 0 selects the default budget
	if !math.IsNaN(d.Quantile(0.5)) || !math.IsNaN(d.Min()) || !math.IsNaN(d.Max()) {
		t.Errorf("empty digest: Quantile/Min/Max = %v/%v/%v, want NaN", d.Quantile(0.5), d.Min(), d.Max())
	}
	if d.Count() != 0 {
		t.Errorf("empty digest Count = %d", d.Count())
	}
}

// TestDigestQuantileRange: out-of-range q panics, and so does NaN.
func TestDigestQuantileRange(t *testing.T) {
	d := NewDigest(4)
	d.Add(1)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			d.Quantile(q)
		}()
	}
}

// TestDigestCompression: the centroid count never exceeds the budget,
// the storage behind it is the budget plus one, the total weight is
// preserved, and quantiles stay within a few percent of the exact
// values for a large uniform stream.
func TestDigestCompression(t *testing.T) {
	const n = 10_000
	d := NewDigest(64)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		d.Add(xs[i])
	}
	if len(d.cs) > 64 {
		t.Fatalf("digest holds %d centroids, budget 64", len(d.cs))
	}
	if cap(d.cs) != 65 { // the budget and the one compress folds away
		t.Fatalf("digest storage holds %d centroids, want 65", cap(d.cs))
	}
	if d.Count() != n {
		t.Fatalf("Count = %d, want %d", d.Count(), n)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		got := d.Quantile(q)
		want := xs[int(q*float64(n-1))]
		if math.Abs(got-want) > 5 { // 5% of the 100-wide range
			t.Errorf("q%.2f = %.2f, want ≈ %.2f", q, got, want)
		}
	}
}

// TestDigestQuantileMonotone: estimates never invert as q grows, even
// after heavy compression of a clustered distribution.
func TestDigestQuantileMonotone(t *testing.T) {
	d := NewDigest(8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		// Two tight clusters stress the closest-pair merge rule.
		x := rng.NormFloat64()
		if i%2 == 0 {
			x += 50
		}
		d.Add(x)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := d.Quantile(q)
		if v < prev {
			t.Fatalf("quantile inversion at q=%.2f: %v < %v", q, v, prev)
		}
		prev = v
	}
}

// TestDigestMergeEdges: the merge contract's corner cases — nil other,
// empty other, empty receiver, self-merge, and mismatched budgets.
func TestDigestMergeEdges(t *testing.T) {
	t.Run("nil and empty others are no-ops", func(t *testing.T) {
		d := NewDigest(8)
		d.Add(1)
		d.Merge(nil)
		d.Merge(NewDigest(8))
		if d.Count() != 1 || d.Quantile(0.5) != 1 {
			t.Errorf("after no-op merges: Count=%d median=%v, want 1/1", d.Count(), d.Quantile(0.5))
		}
	})
	t.Run("empty receiver adopts the other's values", func(t *testing.T) {
		d, o := NewDigest(8), NewDigest(8)
		for _, x := range []float64{1, 2, 3} {
			o.Add(x)
		}
		d.Merge(o)
		if d.Count() != 3 || d.Quantile(0.5) != 2 {
			t.Errorf("Count=%d median=%v, want 3/2", d.Count(), d.Quantile(0.5))
		}
		if o.Count() != 3 {
			t.Errorf("merge mutated the source: Count=%d", o.Count())
		}
	})
	t.Run("self-merge doubles weights, keeps quantiles", func(t *testing.T) {
		d := NewDigest(8)
		for _, x := range []float64{1, 2, 3} {
			d.Add(x)
		}
		d.Merge(d)
		if d.Count() != 6 {
			t.Fatalf("self-merge Count = %d, want 6", d.Count())
		}
		if got := d.Quantile(0.5); got != 2 {
			t.Errorf("self-merge median = %v, want 2", got)
		}
	})
	t.Run("receiver budget wins", func(t *testing.T) {
		small, big := NewDigest(4), NewDigest(256)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 500; i++ {
			big.Add(rng.Float64())
		}
		small.Merge(big)
		if len(small.cs) > 4 {
			t.Errorf("receiver grew to %d centroids, budget 4", len(small.cs))
		}
		if small.Count() != big.Count() {
			t.Errorf("weight lost in merge: %d vs %d", small.Count(), big.Count())
		}
	})
	t.Run("merge equals bulk add", func(t *testing.T) {
		// Two halves merged must summarize the same mass as one digest
		// fed everything (exact equality is not required — compression
		// order differs — but count must match and quantiles agree).
		a, b, all := NewDigest(32), NewDigest(32), NewDigest(32)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 400; i++ {
			x := rng.ExpFloat64()
			all.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		if a.Count() != all.Count() {
			t.Fatalf("merged Count = %d, want %d", a.Count(), all.Count())
		}
		for _, q := range []float64{0.1, 0.5, 0.9} {
			if got, want := a.Quantile(q), all.Quantile(q); math.Abs(got-want) > 0.25 {
				t.Errorf("q%.1f: merged %v vs bulk %v", q, got, want)
			}
		}
	})
}

// TestMergeMatchesAddWeighted: Merge is a fold of the other digest's
// centroids through AddWeighted, ascending, and growing the receiver
// once up front changes no bit of it — centroids, count and budget all
// equal a hand fold's, whatever the operands' sizes and budgets.
func TestMergeMatchesAddWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := func(size, values int) *Digest {
		d := NewDigest(size)
		for i := 0; i < values; i++ {
			// Some repeats, so exact hits fold into existing centroids.
			d.AddWeighted(float64(rng.Intn(4*values+1))*0.37, uint64(1+rng.Intn(3)))
		}
		return d
	}
	fold := func(d, o *Digest) *Digest {
		ref := d.clone()
		if o != nil {
			for _, c := range append([]centroid(nil), o.cs...) {
				ref.AddWeighted(c.mean, c.weight)
			}
		}
		return ref
	}
	check := func(name string, d, o *Digest) {
		t.Helper()
		want := fold(d, o)
		d.Merge(o)
		if d.size != want.size || d.n != want.n || len(d.cs) != len(want.cs) {
			t.Fatalf("%s: size %d n %d len %d, hand fold size %d n %d len %d",
				name, d.size, d.n, len(d.cs), want.size, want.n, len(want.cs))
		}
		for i := range d.cs {
			if math.Float64bits(d.cs[i].mean) != math.Float64bits(want.cs[i].mean) || d.cs[i].weight != want.cs[i].weight {
				t.Fatalf("%s: centroid %d = %+v, hand fold %+v", name, i, d.cs[i], want.cs[i])
			}
		}
	}

	check("nil operand", random(16, 10), nil)
	check("empty operand", random(16, 10), NewDigest(16))
	check("empty receiver", NewDigest(16), random(16, 40))
	check("both empty", NewDigest(16), NewDigest(16))
	self := random(16, 30)
	check("self-merge", self, self)
	for trial := 0; trial < 200; trial++ {
		dSize, oSize := 1+rng.Intn(80), 1+rng.Intn(80)
		d, o := random(dSize, rng.Intn(3*dSize)), random(oSize, rng.Intn(3*oSize))
		check(fmt.Sprintf("trial %d (budgets %d into %d)", trial, oSize, dSize), d, o)
	}
}

// TestDigestWeightedAndNaN: zero weights are no-ops and NaN panics.
func TestDigestWeightedAndNaN(t *testing.T) {
	d := NewDigest(8)
	d.AddWeighted(3, 0)
	if d.Count() != 0 {
		t.Errorf("zero-weight add changed Count to %d", d.Count())
	}
	d.AddWeighted(3, 5)
	if d.Count() != 5 || d.Quantile(0.5) != 3 {
		t.Errorf("weighted add: Count=%d median=%v", d.Count(), d.Quantile(0.5))
	}
	defer func() {
		if recover() == nil {
			t.Error("NaN add did not panic")
		}
	}()
	d.Add(math.NaN())
}

// refQuantile walks the centroids for one quantile alone, returning at
// the first midpoint that reaches the target: the reference
// FuzzDigestQuantiles holds the shared walk to.
func refQuantile(d *Digest, q float64) float64 {
	if d.n == 0 {
		return math.NaN()
	}
	target := q * float64(d.n)
	var cum float64
	prevMid, prevMean := math.Inf(-1), 0.0
	for i, c := range d.cs {
		mid := cum + float64(c.weight)/2
		if target <= mid {
			if i == 0 || prevMid == math.Inf(-1) {
				return c.mean
			}
			frac := (target - prevMid) / (mid - prevMid)
			return prevMean + frac*(c.mean-prevMean)
		}
		cum += float64(c.weight)
		prevMid, prevMean = mid, c.mean
	}
	return d.cs[len(d.cs)-1].mean
}

// FuzzDigestQuantiles: one walk for all of the scrape's quantiles
// (and for the extremes 0 and 1 around them) gives, bit for bit, what
// a walk per quantile gives, and Quantile does too; all are NaN for an
// empty digest. The input is read twice: as an UnmarshalDigest blob,
// and as a budget byte followed by 3-byte (int16 value, weight)
// records for AddWeighted, whose small value range makes exact hits
// and compression common. Seeds under testdata/fuzz: the
// FuzzUnmarshalDigest blobs.
func FuzzDigestQuantiles(f *testing.F) {
	f.Add(digestBlob(8, 0))
	f.Add([]byte{3, 0, 1, 1, 0, 2, 5, 0x80, 0, 1, 0x7f, 0xff, 9, 0, 1, 2, 0, 3, 0})
	qs := append(append([]float64{0}, exportQuantiles[:]...), 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(how string, d *Digest) {
			got := make([]float64, len(qs))
			d.quantiles(qs, got)
			for k, q := range qs {
				want := refQuantile(d, q)
				if math.Float64bits(got[k]) != math.Float64bits(want) {
					t.Fatalf("%s digest %x: q=%v gives %v in one walk, %v in a walk of its own", how, data, q, got[k], want)
				}
				if one := d.Quantile(q); math.Float64bits(one) != math.Float64bits(want) {
					t.Fatalf("%s digest %x: Quantile(%v) = %v, want %v", how, data, q, one, want)
				}
				if d.Count() == 0 && !math.IsNaN(got[k]) {
					t.Fatalf("%s empty digest: q=%v gives %v, want NaN", how, q, got[k])
				}
			}
		}
		if d, err := UnmarshalDigest(data); err == nil {
			check("decoded", d)
		}
		if len(data) == 0 {
			return
		}
		d := NewDigest(1 + int(data[0]%16))
		for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
			d.AddWeighted(float64(int16(binary.BigEndian.Uint16(rec)))*1e4, uint64(rec[2]))
		}
		check("built", d)
	})
}

// TestLowerBoundMatchesSortSearch: AddWeighted's slot search returns
// sort.Search's index on sorted means with runs of equal values, for
// probes below, between, on and above them.
func TestLowerBoundMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 40; n++ {
		cs := make([]centroid, n)
		for i := range cs {
			cs[i].mean = float64(rng.Intn(n/2 + 1))
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].mean < cs[j].mean })
		for x := -1.0; x <= float64(n/2)+1; x += 0.5 {
			want := sort.Search(n, func(i int) bool { return cs[i].mean >= x })
			if got := lowerBound(cs, x); got != want {
				t.Fatalf("n=%d x=%g: lowerBound = %d, sort.Search = %d", n, x, got, want)
			}
		}
	}
}
