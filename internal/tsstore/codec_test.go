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

// pointVector reads the committed hex vector of the Point layout. The
// coord push test and the archive record test assert the same file, so
// a layout change is one deliberate edit that hits every user at once.
func pointVector(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/point.hex")
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPointLayout pins Point's one binary layout to the committed
// vector, field by field, in both directions.
func TestPointLayout(t *testing.T) {
	want := pointVector(t)
	p := Point{Round: 7, At: 3 * time.Second, Span: 1500 * time.Millisecond, Lo: 4e6, Hi: 6e6, Bits: 1.2e6, Err: "timeout"}
	p.Wall = time.Unix(1, 0) // never encoded
	got := p.AppendBinary(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendBinary:\n got %x\nwant %x", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { got = p.AppendBinary(nil) }); n != 1 || cap(got) != len(got) {
		t.Errorf("AppendBinary(nil): %.0f allocations, %d bytes for a %d-byte point; want 1, exact", n, cap(got), len(got))
	}
	if tail := p.AppendBinary([]byte{0xee}); tail[0] != 0xee || !bytes.Equal(tail[1:], want) {
		t.Errorf("AppendBinary does not append: %x", tail)
	}
	r := wire.NewReader("point", want)
	back := ReadPoint(&r)
	p.Wall = time.Time{}
	if err := r.Done(); err != nil || back != p {
		t.Fatalf("ReadPoint = %+v, %v; want %+v", back, err, p)
	}
	// Err is cut to what its u16 length can state.
	p.Err = strings.Repeat("e", math.MaxUint16+10)
	r = wire.NewReader("point", p.AppendBinary(nil))
	if back := ReadPoint(&r); r.Done() != nil || len(back.Err) != math.MaxUint16 {
		t.Fatalf("oversized Err decoded to %d bytes, err %v", len(back.Err), r.Err())
	}
}

// digestBlob hand-assembles a digest blob, valid or not.
func digestBlob(size uint32, n uint64, cs ...centroid) []byte {
	b := binary.BigEndian.AppendUint32(nil, size)
	b = binary.BigEndian.AppendUint64(b, n)
	b = binary.BigEndian.AppendUint32(b, uint32(len(cs)))
	for _, c := range cs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(c.mean))
		b = binary.BigEndian.AppendUint64(b, c.weight)
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
// and a rejected blob yields no digest.
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
	} {
		if d, err := UnmarshalDigest(blob); err == nil || d != nil {
			t.Errorf("%s: decoded to %+v, err %v", name, d, err)
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
	blob, _ := d.MarshalBinary()
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
// recovered checkpoint. One that decodes must be canonical — it
// re-marshals byte for byte — and safe to serve: every quantile finite,
// also after it has been merged into another digest. Seeds under
// testdata/fuzz: the mini archive fixture's two checkpoint digests and
// the two adversarial blobs above.
func FuzzUnmarshalDigest(f *testing.F) {
	f.Add(digestBlob(8, 0))
	f.Add(digestBlob(2, 3, centroid{-maxDigestMean, 1}, centroid{maxDigestMean, 2}))
	f.Add(overflowDigest[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDigest(data)
		if err != nil {
			if d != nil {
				t.Fatalf("rejected blob still yielded %+v", d)
			}
			return
		}
		if re, _ := d.MarshalBinary(); !bytes.Equal(re, data) {
			t.Fatalf("digest not canonical:\n got %x\nwant %x", re, data)
		}
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
	})
}
