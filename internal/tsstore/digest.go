package tsstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/wire"
)

// DefaultDigestSize is the default centroid budget of a Digest. Sixty-
// four centroids summarize the avail-bw distributions of §VI (which are
// smooth and unimodal at fixed load) to well under a percent of range
// while keeping a per-path series' memory footprint constant.
const DefaultDigestSize = 64

// A centroid is one compressed cluster of samples: their mean value and
// how many samples it stands for.
type centroid struct {
	mean   float64
	weight uint64
}

// A Digest is a small fixed-size quantile summary of a stream of
// values, in the spirit of a t-digest but with a deterministic
// compression rule: when the centroid budget is exceeded, the two
// adjacent centroids with the smallest mean gap merge (ties break
// toward the lower index). Determinism matters here because the
// monitor's stored series — and therefore the scrape output built from
// them — are pinned byte-for-byte by tests and by the reproducibility
// contract of the simulator (README "deterministic fleet" invariant).
//
// A Digest is not safe for concurrent use; the Store serializes access
// to the digests it owns.
type Digest struct {
	size int
	cs   []centroid // sorted by mean, ascending
	n    uint64
}

// NewDigest creates a digest that retains at most size centroids;
// size <= 0 selects DefaultDigestSize.
func NewDigest(size int) *Digest {
	if size <= 0 {
		size = DefaultDigestSize
	}
	return &Digest{size: size}
}

// Count returns the number of values added so far.
func (d *Digest) Count() uint64 { return d.n }

// Add records one value.
func (d *Digest) Add(x float64) { d.AddWeighted(x, 1) }

// AddWeighted records a value that stands for w samples. w == 0 is a
// no-op; NaN values panic (a NaN avail-bw is a caller bug and would
// poison every later quantile).
func (d *Digest) AddWeighted(x float64, w uint64) {
	if w == 0 {
		return
	}
	if math.IsNaN(x) {
		panic("tsstore: NaN added to digest")
	}
	i := lowerBound(d.cs, x)
	if i < len(d.cs) && d.cs[i].mean == x {
		// Exact hit: fold into the existing centroid, no compression
		// needed and no precision lost.
		d.cs[i].weight += w
		d.n += w
		return
	}
	if len(d.cs) == cap(d.cs) && 2*len(d.cs) >= d.size {
		// Full, and doubling would reach past the budget: grow once to
		// the most a digest ever holds, its budget plus the centroid
		// compress folds away, rather than to twice the budget.
		d.cs = append(make([]centroid, 0, d.size+1), d.cs...)
	}
	d.cs = append(d.cs, centroid{})
	copy(d.cs[i+1:], d.cs[i:])
	d.cs[i] = centroid{mean: x, weight: w}
	d.n += w
	d.compress()
}

// lowerBound returns the index of the first centroid in cs whose mean
// is at least x, len(cs) if none is: sort.Search's answer, without a
// closure call per probe.
func lowerBound(cs []centroid, x float64) int {
	i, j := 0, len(cs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if cs[h].mean < x {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Merge folds o's centroids into d. o may be nil or empty; merging a
// digest into itself is allowed and doubles every weight. The
// receiver's centroid budget wins when the two differ.
//
// The fold is AddWeighted of each of o's centroids in ascending order,
// so the result is bit-identical to that loop; only the receiver's
// storage is grown once up front, to the most the fold can hold at a
// time, rather than doubled along the way.
func (d *Digest) Merge(o *Digest) {
	if o == nil || len(o.cs) == 0 {
		return
	}
	cs := o.cs
	if o == d {
		// Self-merge: AddWeighted would mutate the slice being ranged.
		cs = append([]centroid(nil), cs...)
	}
	d.reserve(len(d.cs) + len(cs))
	for _, c := range cs {
		d.AddWeighted(c.mean, c.weight)
	}
}

// reserve grows d's centroid storage, once, to hold n centroids at a
// time, or as many as it ever holds (its budget plus the one compress
// folds away) if that is fewer. A fold of n centroids never regrows it.
func (d *Digest) reserve(n int) {
	if most := min(d.size+1, n); most > cap(d.cs) {
		d.cs = append(make([]centroid, 0, most), d.cs...)
	}
}

// compress merges adjacent centroids until the budget holds. The pair
// with the smallest mean gap merges first, so resolution is lost where
// the distribution is densest and the tails stay sharp the longest.
func (d *Digest) compress() {
	for len(d.cs) > d.size {
		best, bestGap := 0, math.Inf(1)
		for i := 0; i+1 < len(d.cs); i++ {
			if gap := d.cs[i+1].mean - d.cs[i].mean; gap < bestGap {
				best, bestGap = i, gap
			}
		}
		a, b := d.cs[best], d.cs[best+1]
		w := a.weight + b.weight
		d.cs[best] = centroid{
			mean:   (a.mean*float64(a.weight) + b.mean*float64(b.weight)) / float64(w),
			weight: w,
		}
		d.cs = append(d.cs[:best+1], d.cs[best+2:]...)
	}
}

// Quantile returns an estimate of the q-th quantile (q in [0, 1]) by
// linear interpolation between centroid midpoints. It returns NaN for
// an empty digest and panics on q outside [0, 1], NaN included. While
// the digest has not yet compressed (Count() distinct values <= size)
// the estimates are exact order statistics under midpoint
// interpolation.
func (d *Digest) Quantile(q float64) float64 {
	if !(q >= 0 && q <= 1) {
		panic(fmt.Sprintf("tsstore: quantile %v out of range [0,1]", q))
	}
	var v [1]float64
	d.quantiles([]float64{q}, v[:])
	return v[0]
}

// quantiles sets out[k] to Quantile(qs[k]) for qs ascending in [0, 1],
// in one walk over the centroids: the targets ascend with q and the
// centroid midpoints never descend, so each target stops at the
// centroid a walk of its own would stop at, with the same running state
// (cum, prevMid, prevMean), and every value is bit-identical to that
// walk's. All are NaN for an empty digest.
func (d *Digest) quantiles(qs, out []float64) {
	if d.n == 0 {
		for k := range out {
			out[k] = math.NaN()
		}
		return
	}
	k := 0
	var cum float64
	prevMid, prevMean := math.Inf(-1), 0.0
	for i, c := range d.cs {
		mid := cum + float64(c.weight)/2
		for ; k < len(qs); k++ {
			target := qs[k] * float64(d.n)
			if !(target <= mid) {
				break
			}
			if i == 0 {
				out[k] = c.mean
				continue
			}
			frac := (target - prevMid) / (mid - prevMid)
			out[k] = prevMean + frac*(c.mean-prevMean)
		}
		if k == len(qs) {
			return
		}
		cum += float64(c.weight)
		prevMid, prevMean = mid, c.mean
	}
	for ; k < len(qs); k++ {
		out[k] = d.cs[len(d.cs)-1].mean
	}
}

// clone returns an independent deep copy of the digest.
func (d *Digest) clone() *Digest {
	return &Digest{size: d.size, n: d.n, cs: append([]centroid(nil), d.cs...)}
}

// copyFrom makes d a deep copy of o in d's own centroid storage, which
// grows only when o holds more centroids than it has room for.
func (d *Digest) copyFrom(o *Digest) {
	d.size, d.n = o.size, o.n
	d.cs = append(d.cs[:0], o.cs...)
}

// CompactSize is the length of the AppendCompact encoding of d.
func (d *Digest) CompactSize() int {
	n := wire.UvarintLen(uint64(d.size)) + wire.UvarintLen(d.n) + wire.UvarintLen(uint64(len(d.cs))) + 8*len(d.cs)
	for _, c := range d.cs {
		n += wire.UvarintLen(c.weight)
	}
	return n
}

// AppendCompact appends d's compact form to b, deterministically:
// centroid budget, total count and centroid count as uvarints, then per
// centroid, in ascending mean order, its mean as big-endian float64
// bits and its weight as a uvarint. Most weights are a handful of
// samples, so a centroid takes 9 bytes rather than the 16 of two fixed
// words. It is the one byte form of a digest: in an archive checkpoint
// and in an SLCP push. ReadCompactDigest and UnmarshalDigest are its
// inverses.
func (d *Digest) AppendCompact(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(d.size))
	b = binary.AppendUvarint(b, d.n)
	b = binary.AppendUvarint(b, uint64(len(d.cs)))
	for _, c := range d.cs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(c.mean))
		b = binary.AppendUvarint(b, c.weight)
	}
	return b
}

// maxDigestMean bounds the centroid means UnmarshalDigest accepts to
// those whose product with any u64 weight is finite (with a factor of
// two to spare for rounding), so that neither the weighted means
// compress forms when such a digest is merged nor the mean differences
// Quantile interpolates over can overflow to ±Inf and on to NaN.
// Avail-bw in bits/s sits some 270 orders of magnitude below it.
const maxDigestMean = math.MaxFloat64 / (1 << 65)

// UnmarshalDigest decodes a blob that holds exactly one AppendCompact
// digest, validating the structural invariants (budget respected,
// means ascending, finite and within maxDigestMean, weights positive
// and summing to the count without wrapping) so a corrupt or
// adversarial blob cannot poison a federated store.
func UnmarshalDigest(data []byte) (*Digest, error) {
	r := wire.NewReader("tsstore: digest blob", data)
	d, err := ReadCompactDigest(&r)
	if err != nil {
		return nil, err
	}
	return wire.Finish(&r, d)
}

// ReadCompactDigest reads one AppendCompact digest off r under
// UnmarshalDigest's validation. The digest is self-delimiting, so r may
// hold more after it.
func ReadCompactDigest(r *wire.Reader) (*Digest, error) {
	size, n, k := r.Uvarint(), r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if size == 0 || size > math.MaxUint32 || k > size {
		return nil, fmt.Errorf("tsstore: digest holds %d centroids against budget %d", k, size)
	}
	// Bound k by the bytes left before allocating for it: a centroid
	// takes at least 9.
	if uint64(r.Len()) < 9*k {
		return nil, fmt.Errorf("tsstore: digest has %d bytes left for %d centroids", r.Len(), k)
	}
	d := &Digest{size: int(size), n: n, cs: make([]centroid, k)}
	var sum uint64
	for i := range d.cs {
		c := centroid{mean: r.F64(), weight: r.Uvarint()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if !(math.Abs(c.mean) <= maxDigestMean) { // also NaN and ±Inf
			return nil, fmt.Errorf("tsstore: digest centroid %d mean %v is not a finite bandwidth", i, c.mean)
		}
		if c.weight == 0 {
			return nil, fmt.Errorf("tsstore: digest centroid %d has zero weight", i)
		}
		if i > 0 && c.mean < d.cs[i-1].mean {
			return nil, fmt.Errorf("tsstore: digest centroid means not ascending at %d", i)
		}
		if c.weight > n-sum {
			// Checked per centroid, not on the final sum: u64 addition
			// wraps, and two weights of 2^63 "sum" to a count of 0.
			return nil, fmt.Errorf("tsstore: digest centroid weights exceed the count %d at %d", n, i)
		}
		sum += c.weight
		d.cs[i] = c
	}
	if sum != n {
		return nil, fmt.Errorf("tsstore: digest count %d != centroid weight sum %d", n, sum)
	}
	return d, nil
}

// Min and Max return the extreme centroid means — after compression
// these are the means of the outermost clusters, which bound the true
// extremes from inside. They return NaN for an empty digest.
func (d *Digest) Min() float64 {
	if len(d.cs) == 0 {
		return math.NaN()
	}
	return d.cs[0].mean
}

// Max is the upper counterpart of Min.
func (d *Digest) Max() float64 {
	if len(d.cs) == 0 {
		return math.NaN()
	}
	return d.cs[len(d.cs)-1].mean
}
