package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// A Reader is the one cursor the variable-length decoders of the store
// stack read through (the SLCP payloads and checkpoint in coord, the
// record payloads and checkpoint in archive, the digest blob in
// tsstore): big-endian integers, u16-length-prefixed strings and
// u32-length-prefixed byte runs. The first read past the end of the
// payload sets a sticky error, after which every read returns zero and
// Len reports 0, so a decoder reads its fields in one straight line
// and checks once, with Done or Finish. A Reader is a plain value:
// declared as a local it stays on the stack, and it allocates only to
// build an error or a string.
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
		if r.err == nil {
			r.err = fmt.Errorf("%s truncated", r.what)
		}
		r.buf = nil
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
