package tsstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// hexVector reads a committed hex vector under testdata:
// point_compact.hex is a point's one byte form, digest_compact.hex a
// digest's. The coord push test and the archive record tests assert the
// same files, so a layout change is one deliberate edit that hits every
// user at once.
func hexVector(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPointLayout pins Point's one byte form, AppendCompact's, to the
// committed vector, field by field, in both directions, with
// CompactSize exact.
func TestPointLayout(t *testing.T) {
	want := hexVector(t, "point_compact.hex")
	p := Point{Round: 7, At: 3 * time.Second, Span: 1500 * time.Millisecond, Lo: 4e6, Hi: 6e6, Bits: 1.2e6, Err: "timeout"}
	got := p.AppendCompact(nil)
	if !bytes.Equal(got, want) || p.CompactSize() != len(want) {
		t.Fatalf("AppendCompact (CompactSize %d):\n got %x\nwant %x", p.CompactSize(), got, want)
	}
	if n := testing.AllocsPerRun(100, func() { got = p.AppendCompact(nil) }); n != 1 || cap(got) != len(got) {
		t.Errorf("AppendCompact(nil): %.0f allocations, %d bytes for a %d-byte point; want 1, exact", n, cap(got), len(got))
	}
	if tail := p.AppendCompact([]byte{0xee}); tail[0] != 0xee || !bytes.Equal(tail[1:], want) {
		t.Errorf("AppendCompact does not append: %x", tail)
	}
	r := wire.NewReader("point", want)
	if back := ReadCompactPoint(&r); r.Done() != nil || back != p {
		t.Fatalf("ReadCompactPoint = %+v, %v; want %+v", back, r.Err(), p)
	}
	for _, q := range []Point{{Round: -1, At: -time.Second, Span: math.MaxInt64}, {Round: math.MinInt64, Lo: math.Copysign(0, -1), Hi: math.Inf(1), Bits: math.NaN()}} {
		b := q.AppendCompact(nil)
		r = wire.NewReader("point", b)
		back := ReadCompactPoint(&r)
		if r.Done() != nil || !bytes.Equal(back.AppendCompact(nil), b) || len(b) != cap(b) || q.CompactSize() != len(b) {
			t.Fatalf("%+v: compact round trip gave %+v, %v", q, back, r.Err())
		}
	}
	// Err is cut to 65 535 bytes, and CompactSize counts the cut.
	p.Err = strings.Repeat("e", math.MaxUint16+10)
	got = p.AppendCompact(nil)
	r = wire.NewReader("point", got)
	if back := ReadCompactPoint(&r); r.Done() != nil || len(back.Err) != math.MaxUint16 || p.CompactSize() != len(got) {
		t.Fatalf("oversized Err decoded to %d bytes, err %v", len(back.Err), r.Err())
	}
}

// TestDigestCompactLayout pins the digest's one byte form to its
// committed vector: CompactSize exact, and the digest read back, by
// UnmarshalDigest and off a longer reader, re-encodes to it.
func TestDigestCompactLayout(t *testing.T) {
	d := NewDigest(8)
	for _, x := range []float64{1e6, 3e6, 3e6, 9e6} {
		d.Add(x)
	}
	want := hexVector(t, "digest_compact.hex")
	if got := d.AppendCompact(nil); !bytes.Equal(got, want) || d.CompactSize() != len(want) {
		t.Fatalf("AppendCompact (CompactSize %d):\n got %x\nwant %x", d.CompactSize(), got, want)
	}
	r := wire.NewReader("digest", append(append([]byte(nil), want...), 0xee))
	back, err := ReadCompactDigest(&r)
	if err != nil || r.Len() != 1 {
		t.Fatalf("ReadCompactDigest: %v, %d bytes left; want the digest and the byte after it", err, r.Len())
	}
	if re := back.AppendCompact(nil); !bytes.Equal(re, want) {
		t.Fatalf("digest read back re-encodes to %x, want %x", re, want)
	}
	if whole, err := UnmarshalDigest(want); err != nil || !bytes.Equal(whole.AppendCompact(nil), want) {
		t.Fatalf("UnmarshalDigest: %+v, %v", whole, err)
	}
	for n := 0; n < len(want); n++ {
		r := wire.NewReader("digest", want[:n])
		if back, err := ReadCompactDigest(&r); err == nil || back != nil {
			t.Fatalf("prefix %d/%d decoded to %+v, err %v", n, len(want), back, err)
		}
	}
}

// digestBlob hand-assembles a digest blob in the AppendCompact form,
// valid or not.
func digestBlob(size, n uint64, cs ...centroid) []byte {
	b := binary.AppendUvarint(nil, size)
	b = binary.AppendUvarint(b, n)
	b = binary.AppendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(c.mean))
		b = binary.AppendUvarint(b, c.weight)
	}
	return b
}

// The two blobs that decoded without error before the weight sum and
// the means were checked properly: two weights of 2^63 wrap to the
// stated count 0 (merged into ten 5 Mb/s samples they left Count() at
// 10 and dragged the median to 1 Mb/s), and ±Inf means turned a merged
// median into NaN.
var (
	overflowDigest = digestBlob(64, 0, centroid{1e6, 1 << 63}, centroid{2e6, 1 << 63})
	infDigest      = digestBlob(64, 2, centroid{math.Inf(-1), 1}, centroid{math.Inf(1), 1})
)

// TestUnmarshalDigestRejects: every structural violation is an error,
// and a rejected blob yields no digest, whether it is the whole blob
// (UnmarshalDigest) or read off a longer one (ReadCompactDigest).
func TestUnmarshalDigestRejects(t *testing.T) {
	for name, blob := range map[string][]byte{
		"weight sum wraps u64":    overflowDigest,
		"infinite means":          infDigest,
		"NaN mean":                digestBlob(8, 1, centroid{math.NaN(), 1}),
		"mean past maxDigestMean": digestBlob(8, 1, centroid{math.MaxFloat64, 1}),
		"weights exceed count":    digestBlob(8, 3, centroid{1, 2}, centroid{2, 2}),
		"weights below count":     digestBlob(8, 5, centroid{1, 2}, centroid{2, 2}),
		"zero weight":             digestBlob(8, 0, centroid{1, 0}),
		"means descending":        digestBlob(8, 2, centroid{2, 1}, centroid{1, 1}),
		"over budget":             digestBlob(1, 2, centroid{1, 1}, centroid{2, 1}),
		"zero budget":             digestBlob(0, 0),
		"budget past u32":         digestBlob(math.MaxUint32+1, 0),
		"centroids past bytes":    digestBlob(8, 2, centroid{0, 1}, centroid{0, 1})[:12],
	} {
		if d, err := UnmarshalDigest(blob); err == nil || d != nil {
			t.Errorf("%s: decoded to %+v, err %v", name, d, err)
		}
		r := wire.NewReader("blob", append(blob[:len(blob):len(blob)], 0, 0))
		if d, err := ReadCompactDigest(&r); err == nil || d != nil {
			t.Errorf("%s, off a longer blob: decoded to %+v, err %v", name, d, err)
		}
	}
}

// TestUnmarshalDigestPoisonFree is the federation-level statement of
// the same fix: merging whatever UnmarshalDigest lets through cannot
// move an honest digest's count away from its samples.
func TestUnmarshalDigestPoisonFree(t *testing.T) {
	honest := NewDigest(0)
	for i := 0; i < 10; i++ {
		honest.Add(5e6)
	}
	for _, blob := range [][]byte{overflowDigest, infDigest} {
		if d, err := UnmarshalDigest(blob); err == nil {
			honest.Merge(d)
		}
	}
	if honest.Count() != 10 || honest.Quantile(0.5) != 5e6 {
		t.Fatalf("poisoned: count %d median %v", honest.Count(), honest.Quantile(0.5))
	}
}

// TestUnmarshalDigestPrefixes: every strict prefix of a valid blob, and
// the blob with one byte appended, is an error and yields no digest.
func TestUnmarshalDigestPrefixes(t *testing.T) {
	d := NewDigest(8)
	for _, x := range []float64{1e6, 3e6, 3e6, 9e6} {
		d.Add(x)
	}
	blob := d.AppendCompact(nil)
	if back, err := UnmarshalDigest(blob); err != nil || back.Count() != 4 || back.Quantile(0.5) != d.Quantile(0.5) {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
	for n := 0; n < len(blob); n++ {
		if back, err := UnmarshalDigest(blob[:n]); err == nil || back != nil {
			t.Fatalf("prefix %d/%d decoded to %+v, err %v", n, len(blob), back, err)
		}
	}
	if back, err := UnmarshalDigest(append(blob, 0)); err == nil || back != nil {
		t.Fatalf("trailing byte decoded to %+v, err %v", back, err)
	}
}

// FuzzUnmarshalDigest: a digest blob arrives from an agent's push or a
// recovered checkpoint, both in the AppendCompact form. One that
// decodes must be canonical — it re-encodes byte for byte, in
// CompactSize bytes — and safe to serve: every quantile finite, also
// after it has been merged into another digest. Seeds under
// testdata/fuzz: the mini archive fixture's two checkpoint digests and
// the two adversarial blobs above.
func FuzzUnmarshalDigest(f *testing.F) {
	for _, blob := range [][]byte{
		digestBlob(8, 0),
		digestBlob(2, 3, centroid{-maxDigestMean, 1}, centroid{maxDigestMean, 2}),
		overflowDigest,
		infDigest,
		digestBlob(math.MaxUint32+1, 0),
		digestBlob(8, 2, centroid{0, 1}, centroid{0, 1})[:12],
		overflowDigest[:12],
	} {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDigest(data)
		if (err != nil) != (d == nil) {
			t.Fatalf("rejected blob still yielded a digest: %v", err)
		}
		if d == nil {
			return
		}
		if re := d.AppendCompact(nil); !bytes.Equal(re, data) || d.CompactSize() != len(data) {
			t.Fatalf("digest not canonical (CompactSize %d):\n got %x\nwant %x", d.CompactSize(), re, data)
		}
		checkServable(t, d, data)
	})
}

// checkServable fails t unless every quantile of d is finite, also
// after d has been merged into another digest.
func checkServable(t *testing.T, d *Digest, data []byte) {
	t.Helper()
	digests := []*Digest{d}
	if d.Count() < math.MaxUint64 { // 1 + 2^64−1 would wrap the merged count
		into := NewDigest(1) // the tightest budget: every merge compresses
		into.Add(5e6)
		into.Merge(d)
		digests = append(digests, into)
	}
	for _, dg := range digests {
		if dg.Count() == 0 {
			continue
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if v := dg.Quantile(q); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("quantile %v of %x is %v", q, data, v)
			}
		}
	}
}
