package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// A Reader is the one cursor the variable-length decoders of the store
// stack read through (the SLCP payloads and checkpoint in coord, the
// record payloads and checkpoint in archive, the digest blob in
// tsstore): big-endian integers, minimal LEB128 varints,
// u16-length-prefixed strings and u32-length-prefixed byte runs. The
// first read past the end of the payload sets a sticky error, after
// which every read returns zero and Len reports 0, so a decoder reads
// its fields in one straight line and checks once, with Done or
// Finish. A Reader is a plain value: declared as a local it stays on
// the stack, and it allocates only to build an error or a string.
type Reader struct {
	buf  []byte
	what string
	err  error
}

// NewReader starts reading b. what names the payload in every error
// the Reader reports, e.g. "coord: push payload".
func NewReader(what string, b []byte) Reader { return Reader{buf: b, what: what} }

// take consumes n bytes, or fails the Reader when fewer remain.
func (r *Reader) take(n uint64) []byte {
	if uint64(len(r.buf)) < n {
		r.fail("%s truncated", r.what)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// F64 reads a float64 stored as its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Dur reads a time.Duration stored as nanoseconds in a u64.
func (r *Reader) Dur() time.Duration { return time.Duration(r.U64()) }

// Str reads a u16-length-prefixed string, the inverse of AppendString.
func (r *Reader) Str() string { return string(r.take(uint64(r.U16()))) }

// Bytes reads a u32-length-prefixed byte run. The result aliases the
// payload: copy it before keeping it past the payload's lifetime.
func (r *Reader) Bytes() []byte { return r.take(uint64(r.U32())) }

// Uvarint reads an unsigned LEB128 varint (encoding/binary's Uvarint
// form). Only the minimal encoding of a value reads: a varint that is
// cut short, runs past 64 bits, or carries redundant trailing zero
// groups fails the Reader, so every payload that decodes re-encodes to
// the same bytes.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.fail("%s truncated", r.what)
	case n < 0:
		r.fail("%s varint overflows 64 bits", r.what)
	case n > 1 && r.buf[n-1] == 0:
		r.fail("%s varint is not minimally encoded", r.what)
	default:
		r.buf = r.buf[n:]
		return x
	}
	return 0
}

// Varint reads a zigzag-signed varint (encoding/binary's Varint form)
// under Uvarint's rules.
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

// VarStr reads a uvarint-length-prefixed string of at most 65 535
// bytes, the inverse of AppendVarString.
func (r *Reader) VarStr() string {
	n := r.Uvarint()
	if n > math.MaxUint16 {
		r.fail("%s string of %d bytes exceeds %d", r.what, n, math.MaxUint16)
		return ""
	}
	return string(r.take(n))
}

// fail sets the sticky error, unless one is already set, and empties
// the Reader.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.buf = nil
}

// Len returns the unread byte count: 0 once the Reader has failed, so
// an element count checked against it cannot pass on a failed Reader.
func (r *Reader) Len() int { return len(r.buf) }

// Err returns the sticky error, nil while every read has succeeded.
func (r *Reader) Err() error { return r.err }

// Done ends a decode: it returns the sticky error, or an error if
// unread bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("%s has %d trailing bytes", r.what, len(r.buf))
	}
	return r.err
}

// Finish ends a decode that built v: v if the payload was consumed
// exactly, the zero T and the error otherwise — a decoder that returns
// through Finish cannot hand back a half-filled value.
func Finish[T any](r *Reader, v T) (T, error) {
	if err := r.Done(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// UvarintLen is the length of x's uvarint encoding, so an encoder can
// size its buffer exactly before appending.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// VarintLen is the length of x's zigzag varint encoding.
func VarintLen(x int64) int { return UvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// VarStringLen is the length of AppendVarString's encoding of s.
func VarStringLen(s string) int {
	n := min(len(s), math.MaxUint16)
	return UvarintLen(uint64(n)) + n
}

// AppendVarString appends s as a uvarint length and its bytes, cut to
// 65 535 bytes as AppendString cuts it.
func AppendVarString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendString appends s as a u16 length and its bytes. A longer s is
// cut to the 65 535 bytes the length field can state: writing the full
// text behind a wrapped length would commit bytes no decoder accepts.
func AppendString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}
