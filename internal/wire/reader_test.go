package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// readerSample is one value of every type a Reader reads.
type readerSample struct {
	A uint8
	B uint16
	C uint32
	D uint64
	E float64
	F time.Duration
	G string
	H []byte
}

func (s readerSample) marshal() []byte {
	b := []byte{s.A}
	b = binary.BigEndian.AppendUint16(b, s.B)
	b = binary.BigEndian.AppendUint32(b, s.C)
	b = binary.BigEndian.AppendUint64(b, s.D)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(s.E))
	b = binary.BigEndian.AppendUint64(b, uint64(s.F))
	b = AppendString(b, s.G)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.H)))
	return append(b, s.H...)
}

func readSample(b []byte) (readerSample, error) {
	r := NewReader("wire: sample", b)
	s := readerSample{A: r.U8(), B: r.U16(), C: r.U32(), D: r.U64(), E: r.F64(), F: r.Dur(), G: r.Str()}
	s.H = append([]byte(nil), r.Bytes()...)
	return Finish(&r, s)
}

// TestReader: a payload of every field type round-trips; every strict
// prefix fails with the label in the error and a zero value; one
// trailing byte is rejected by Done.
func TestReader(t *testing.T) {
	want := readerSample{A: 0xa1, B: 0xb1b2, C: 0xc1c2c3c4, D: 0xd1d2d3d4d5d6d7d8, E: -2.5e6, F: 90 * time.Second, G: "p00", H: []byte{1, 2, 3}}
	blob := want.marshal()
	got, err := readSample(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.A != want.A || got.B != want.B || got.C != want.C || got.D != want.D || got.E != want.E || got.F != want.F || got.G != want.G || !bytes.Equal(got.H, want.H) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	for n := 0; n < len(blob); n++ {
		got, err := readSample(blob[:n])
		if err == nil || !strings.Contains(err.Error(), "wire: sample truncated") {
			t.Fatalf("prefix %d/%d: err = %v, want a truncation error carrying the label", n, len(blob), err)
		}
		if got.A != 0 || got.D != 0 || got.G != "" || got.H != nil {
			t.Fatalf("prefix %d/%d: Finish handed back a part-filled value %+v", n, len(blob), got)
		}
	}
	if _, err := readSample(append(blob, 0)); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("one trailing byte: err = %v", err)
	}
}

// TestReaderStickyError: after the first short read every later read
// returns zero, Len is 0 (so no element count passes a bound check
// against it), and the first error is the one reported.
func TestReaderStickyError(t *testing.T) {
	r := NewReader("x", []byte{0, 0, 0, 9, 0xff, 0xff})
	if got := r.Bytes(); got != nil || r.Err() == nil {
		t.Fatalf("Bytes claiming 9 of 2 bytes = %v, err %v", got, r.Err())
	}
	first := r.Err()
	if r.Len() != 0 || r.U8() != 0 || r.U16() != 0 || r.U64() != 0 || r.Str() != "" || r.Bytes() != nil {
		t.Fatal("a failed Reader still yields data")
	}
	if r.Done() != first {
		t.Fatalf("Done = %v, want the first error %v", r.Done(), first)
	}
	// A u32 length with the top bit set must fail, not wrap negative.
	r = NewReader("x", []byte{0xff, 0xff, 0xff, 0xff, 1})
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("4 GiB byte run accepted")
	}
}

// TestAppendStringClamps: the u16 length always states exactly the
// bytes that follow it, whatever the string's length.
func TestAppendStringClamps(t *testing.T) {
	for _, n := range []int{0, 1, math.MaxUint16, math.MaxUint16 + 1, 3 * math.MaxUint16} {
		b := AppendString([]byte{0xee}, strings.Repeat("e", n))
		r := NewReader("x", b[1:])
		s := r.Str()
		if err := r.Done(); err != nil || len(s) != min(n, math.MaxUint16) {
			t.Fatalf("AppendString(%d bytes): decoded %d bytes, err %v", n, len(s), err)
		}
	}
}

// TestReaderAllocationFree: a Reader declared as a local and read to
// the end costs no allocation — it is used once per archive record and
// once per pushed point.
func TestReaderAllocationFree(t *testing.T) {
	blob := readerSample{G: "", H: []byte{1}}.marshal()
	blob = binary.AppendVarint(binary.AppendUvarint(blob, 1<<40), -5)
	blob = AppendVarString(blob, "")
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader("wire: sample", blob)
		sink += uint64(r.U8()) + uint64(r.U16()) + uint64(r.U32()) + r.U64() + uint64(r.F64()) + uint64(r.Dur())
		sink += uint64(len(r.Str()) + len(r.Bytes()))
		sink += r.Uvarint() + uint64(r.Varint()) + uint64(len(r.VarStr()))
		if r.Done() != nil {
			t.Fatal(r.Err())
		}
	}); n != 0 {
		t.Fatalf("Reader allocates %.0f times per payload, want 0", n)
	}
}

// TestReaderVarints: Uvarint and Varint read exactly the minimal
// encodings binary.AppendUvarint / AppendVarint write, and fail the
// Reader on a cut-short, over-64-bit or overlong one; UvarintLen and
// VarintLen state each encoding's length.
func TestReaderVarints(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		want uint64
		err  string // "" reads want and consumes in
	}{
		{"zero", []byte{0x00}, 0, ""},
		{"one byte max", []byte{0x7f}, 127, ""},
		{"two bytes", []byte{0x80, 0x01}, 128, ""},
		{"u64 max", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, math.MaxUint64, ""},
		{"empty", nil, 0, "truncated"},
		{"cut short", []byte{0x80}, 0, "truncated"},
		{"cut short at ten", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 0, "truncated"},
		{"past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 0, "overflows"},
		{"eleven bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, 0, "overflows"},
		{"overlong zero", []byte{0x80, 0x00}, 0, "not minimally encoded"},
		{"overlong one", []byte{0x81, 0x80, 0x00}, 0, "not minimally encoded"},
	} {
		r := NewReader("v", c.in)
		got := r.Uvarint()
		if c.err == "" {
			if err := r.Done(); err != nil || got != c.want {
				t.Errorf("%s: Uvarint = %d, %v; want %d", c.name, got, err, c.want)
			}
			if n := UvarintLen(c.want); n != len(c.in) || !bytes.Equal(binary.AppendUvarint(nil, c.want), c.in) {
				t.Errorf("%s: UvarintLen = %d for a %d-byte encoding", c.name, n, len(c.in))
			}
			continue
		}
		if got != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), c.err) || r.Len() != 0 {
			t.Errorf("%s: Uvarint = %d, err %v, %d bytes left; want 0 and an error saying %q", c.name, got, r.Err(), r.Len(), c.err)
		}
		r = NewReader("v", c.in)
		if v := r.Varint(); v != 0 || r.Err() == nil {
			t.Errorf("%s: Varint = %d, err %v; want the same failure", c.name, v, r.Err())
		}
	}
	for _, x := range []int64{0, -1, 1, -64, 63, -65, 64, math.MinInt64, math.MaxInt64} {
		b := binary.AppendVarint(nil, x)
		r := NewReader("v", b)
		if got := r.Varint(); r.Done() != nil || got != x || VarintLen(x) != len(b) {
			t.Errorf("Varint(%x) = %d, err %v, VarintLen %d; want %d in %d bytes", b, got, r.Err(), VarintLen(x), x, len(b))
		}
	}
	for _, n := range []int{0, 1, 127, 128, math.MaxUint16, math.MaxUint16 + 1} {
		b := AppendVarString(nil, strings.Repeat("e", n))
		r := NewReader("v", b)
		if s := r.VarStr(); r.Done() != nil || len(s) != min(n, math.MaxUint16) || VarStringLen(strings.Repeat("e", n)) != len(b) {
			t.Errorf("AppendVarString(%d bytes): decoded %d bytes in %d, err %v", n, len(s), len(b), r.Err())
		}
	}
	r := NewReader("v", binary.AppendUvarint(nil, math.MaxUint16+1))
	if s := r.VarStr(); s != "" || r.Err() == nil || !strings.Contains(r.Err().Error(), "exceeds") {
		t.Errorf("VarStr over 65 535 bytes = %q, err %v", s, r.Err())
	}
}
