package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzProbeRoundTrip: any header marshalled at any size must decode
// back bit-for-bit, and the padding must stay zero.
func FuzzProbeRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), int64(0), ProbeHeaderSize)
	f.Add(uint32(1), uint32(3), uint32(11), uint32(99), int64(1_700_000_000_000_000_000), 96)
	f.Add(uint32(1<<31), uint32(1<<31), uint32(1<<31), uint32(1<<31), int64(-1), 1500)
	f.Fuzz(func(t *testing.T, gen, fleet, stream, seq uint32, sentNs int64, size int) {
		if size > 64*1024 {
			size = 64 * 1024 // cap allocations, not coverage
		}
		h := ProbeHeader{Gen: gen, Fleet: fleet, Stream: stream, Seq: seq, SentNs: sentNs}
		buf, err := MarshalProbe(h, size)
		if size < ProbeHeaderSize {
			if err == nil {
				t.Fatalf("MarshalProbe accepted size %d below header size", size)
			}
			return
		}
		if err != nil {
			t.Fatalf("MarshalProbe(%+v, %d): %v", h, size, err)
		}
		if len(buf) != size {
			t.Fatalf("marshalled %d bytes, want %d", len(buf), size)
		}
		got, err := UnmarshalProbe(buf)
		if err != nil {
			t.Fatalf("UnmarshalProbe round-trip: %v", err)
		}
		if got != h {
			t.Fatalf("round-trip changed header: %+v → %+v", h, got)
		}
		for i, b := range buf[ProbeHeaderSize:] {
			if b != 0 {
				t.Fatalf("padding byte %d is %#x, want zero", ProbeHeaderSize+i, b)
			}
		}
		// A sender re-stamps one buffer per stream: PutProbe over whatever
		// the previous packet left must write the same header bytes and
		// nothing past them.
		dirty := bytes.Repeat([]byte{0xA5}, size)
		PutProbe(dirty, h)
		if !bytes.Equal(dirty[:ProbeHeaderSize], buf[:ProbeHeaderSize]) {
			t.Fatalf("PutProbe into a dirty buffer wrote % x, MarshalProbe % x", dirty[:ProbeHeaderSize], buf[:ProbeHeaderSize])
		}
		if got, err := UnmarshalProbe(dirty); err != nil || got != h {
			t.Fatalf("PutProbe into a dirty buffer decodes to %+v, %v; want %+v", got, err, h)
		}
		for i, b := range dirty[ProbeHeaderSize:] {
			if b != 0xA5 {
				t.Fatalf("PutProbe touched byte %d past the header", ProbeHeaderSize+i)
			}
		}
	})
}

// FuzzUnmarshalProbe: arbitrary datagrams must never panic, and
// anything that decodes must re-encode to the same header bytes.
func FuzzUnmarshalProbe(f *testing.F) {
	valid, _ := MarshalProbe(ProbeHeader{Gen: 9, Fleet: 1, Stream: 2, Seq: 3, SentNs: 4}, 96)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SLPS"))
	f.Add(bytes.Repeat([]byte{0xff}, ProbeHeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := UnmarshalProbe(data)
		if err != nil {
			if !errors.Is(err, ErrNotProbe) {
				t.Fatalf("non-probe error is not ErrNotProbe: %v", err)
			}
			return
		}
		re, err := MarshalProbe(h, ProbeHeaderSize)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(re, data[:ProbeHeaderSize]) {
			t.Fatalf("decode/encode not idempotent:\n got %x\nwant %x", re, data[:ProbeHeaderSize])
		}
	})
}

// FuzzControlStream: arbitrary byte streams through ReadMessage must
// never panic or over-allocate, and every frame that parses must
// re-encode to an identical frame.
func FuzzControlStream(f *testing.F) {
	frame := func(t MsgType, payload []byte) []byte {
		var b bytes.Buffer
		if err := WriteMessage(&b, t, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(frame(MsgHello, MarshalHelloRange(HelloRange{Min: VersionMin, Max: Version, UDPPort: 9999})))
	f.Add(frame(MsgStreamRequest, MarshalStreamRequest(StreamRequest{Gen: 4, Fleet: 1, Stream: 2, K: 100, L: 300, PeriodNs: 100_000})))
	f.Add(frame(MsgStreamDone, MarshalStreamDone(StreamDone{Gen: 4, Fleet: 1, Stream: 2, Sent: 100, Flagged: 1})))
	f.Add(frame(MsgBye, nil))
	f.Add(frame(MsgBye, []byte("wire: no protocol version in common: peer speaks [4, 9], this build [3, 3]")))
	f.Add([]byte{0x53, 0x4c, 0x50, 0x53, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := WriteMessage(&b, typ, payload); err != nil {
			t.Fatalf("re-encoding a frame that just parsed: %v", err)
		}
		wire := 7 + len(payload)
		if !bytes.Equal(b.Bytes(), data[:wire]) {
			t.Fatalf("frame not idempotent:\n got %x\nwant %x", b.Bytes(), data[:wire])
		}
	})
}

// FuzzPayloadRoundTrips: the four fixed-layout control payloads must
// round-trip through their unmarshal/marshal pairs whenever they
// decode at all.
func FuzzPayloadRoundTrips(f *testing.F) {
	f.Add(MarshalHelloRange(HelloRange{Min: 2, Max: 3, UDPPort: 55555}))
	f.Add(MarshalHelloAck(HelloAck{Version: Version}))
	f.Add(MarshalStreamRequest(StreamRequest{Gen: 2, Fleet: 7, Stream: 3, K: 100, L: 1500, PeriodNs: 1 << 40}))
	f.Add(MarshalStreamDone(StreamDone{Gen: 2, Fleet: 7, Stream: 3, Sent: 99, Flagged: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := UnmarshalHelloRange(data); err == nil {
			if !bytes.Equal(MarshalHelloRange(h), data) {
				t.Fatalf("range hello round-trip mismatch for %x", data)
			}
		}
		if a, err := UnmarshalHelloAck(data); err == nil {
			if !bytes.Equal(MarshalHelloAck(a), data) {
				t.Fatalf("hello-ack round-trip mismatch for %x", data)
			}
		}
		if q, err := UnmarshalStreamRequest(data); err == nil {
			if !bytes.Equal(MarshalStreamRequest(q), data) {
				t.Fatalf("stream-request round-trip mismatch for %x", data)
			}
		}
		if d, err := UnmarshalStreamDone(data); err == nil {
			if !bytes.Equal(MarshalStreamDone(d), data) {
				t.Fatalf("stream-done round-trip mismatch for %x", data)
			}
		}
	})
}

// TestReadMessageTruncated pins the error behavior the fuzzers rely
// on: truncation inside header or payload is an error, never a panic,
// and garbage lengths are rejected before allocation.
func TestReadMessageTruncated(t *testing.T) {
	var b bytes.Buffer
	if err := WriteMessage(&b, MsgStreamDone, MarshalStreamDone(StreamDone{Sent: 5})); err != nil {
		t.Fatal(err)
	}
	full := b.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := ReadMessage(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	if typ, payload, err := ReadMessage(bytes.NewReader(full)); err != nil || typ != MsgStreamDone || len(payload) != 17 {
		t.Fatalf("full frame: type %v payload %d err %v", typ, len(payload), err)
	}

	// A length field beyond maxFrame must be rejected up front.
	bad := make([]byte, 7)
	binary.BigEndian.PutUint32(bad[0:], Magic)
	bad[4] = uint8(MsgHello)
	binary.BigEndian.PutUint16(bad[5:], maxFrame+1)
	if _, _, err := ReadMessage(bytes.NewReader(bad)); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("oversized frame: err %v, want explicit rejection", err)
	}
}
