package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// TestProbeRoundTrip checks encode/decode of a probe header plus
// padding.
func TestProbeRoundTrip(t *testing.T) {
	h := ProbeHeader{Gen: 9, Fleet: 3, Stream: 7, Seq: 42, SentNs: 1_234_567_890_123}
	buf, err := MarshalProbe(h, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 200 {
		t.Fatalf("marshaled size %d, want 200", len(buf))
	}
	got, err := UnmarshalProbe(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip %+v, want %+v", got, h)
	}
}

// TestQuickProbeRoundTrip is the property form.
func TestQuickProbeRoundTrip(t *testing.T) {
	f := func(gen, fleet, stream, seq uint32, sent int64, pad uint16) bool {
		size := ProbeHeaderSize + int(pad)%1400
		h := ProbeHeader{Gen: gen, Fleet: fleet, Stream: stream, Seq: seq, SentNs: sent}
		buf, err := MarshalProbe(h, size)
		if err != nil {
			return false
		}
		got, err := UnmarshalProbe(buf)
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestProbeErrors covers undersized buffers and foreign datagrams.
func TestProbeErrors(t *testing.T) {
	if _, err := MarshalProbe(ProbeHeader{}, ProbeHeaderSize-1); err == nil {
		t.Error("undersized marshal accepted")
	}
	if _, err := UnmarshalProbe(make([]byte, 4)); !errors.Is(err, ErrNotProbe) {
		t.Errorf("short datagram error = %v, want ErrNotProbe", err)
	}
	garbage := make([]byte, ProbeHeaderSize)
	if _, err := UnmarshalProbe(garbage); !errors.Is(err, ErrNotProbe) {
		t.Errorf("bad magic error = %v, want ErrNotProbe", err)
	}
}

// TestControlRoundTrips round-trips every message type through a
// buffer.
func TestControlRoundTrips(t *testing.T) {
	var buf bytes.Buffer

	hello := HelloRange{Min: VersionMin, Max: Version, UDPPort: 4242}
	req := StreamRequest{Gen: 5, Fleet: 1, Stream: 2, K: 100, L: 300, PeriodNs: 100_000}
	done := StreamDone{Gen: 5, Fleet: 1, Stream: 2, Sent: 100, Flagged: 1}

	if err := WriteMessage(&buf, MsgHello, MarshalHelloRange(hello)); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, MsgStreamRequest, MarshalStreamRequest(req)); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, MsgStreamDone, MarshalStreamDone(done)); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, MsgBye, nil); err != nil {
		t.Fatal(err)
	}

	mt, p, err := ReadMessage(&buf)
	if err != nil || mt != MsgHello {
		t.Fatalf("first message %v, %v", mt, err)
	}
	if got, err := UnmarshalHelloRange(p); err != nil || got != hello {
		t.Fatalf("hello round trip %+v, %v", got, err)
	}
	mt, p, err = ReadMessage(&buf)
	if err != nil || mt != MsgStreamRequest {
		t.Fatalf("second message %v, %v", mt, err)
	}
	if got, err := UnmarshalStreamRequest(p); err != nil || got != req {
		t.Fatalf("request round trip %+v, %v", got, err)
	}
	mt, p, err = ReadMessage(&buf)
	if err != nil || mt != MsgStreamDone {
		t.Fatalf("third message %v, %v", mt, err)
	}
	if got, err := UnmarshalStreamDone(p); err != nil || got != done {
		t.Fatalf("done round trip %+v, %v", got, err)
	}
	if mt, _, err = ReadMessage(&buf); err != nil || mt != MsgBye {
		t.Fatalf("fourth message %v, %v", mt, err)
	}
}

// TestQuickStreamRequestRoundTrip is the property form for the largest
// payload.
func TestQuickStreamRequestRoundTrip(t *testing.T) {
	f := func(gen, fleet, stream, k, l uint32, period uint64) bool {
		req := StreamRequest{Gen: gen, Fleet: fleet, Stream: stream, K: k, L: l, PeriodNs: period}
		got, err := UnmarshalStreamRequest(MarshalStreamRequest(req))
		return err == nil && got == req
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadMessageErrors covers truncation, bad magic, and oversized
// frames.
func TestReadMessageErrors(t *testing.T) {
	if _, _, err := ReadMessage(strings.NewReader("abc")); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := ReadMessage(bytes.NewReader(make([]byte, 7))); err == nil {
		t.Error("zero magic accepted")
	}
	// Valid header claiming a payload that never arrives.
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgHello, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:9]
	if _, _, err := ReadMessage(bytes.NewReader(trunc)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated payload error = %v, want unexpected EOF", err)
	}
	// Oversized write refused.
	if err := WriteMessage(io.Discard, MsgHello, make([]byte, 4096)); err == nil {
		t.Error("oversized payload accepted")
	}
}

// TestPayloadSizeValidation checks strict payload lengths.
func TestPayloadSizeValidation(t *testing.T) {
	if _, err := UnmarshalHelloRange([]byte{1}); err == nil {
		t.Error("short hello accepted")
	}
	if _, err := UnmarshalStreamRequest(make([]byte, 27)); err == nil {
		t.Error("short stream-request accepted")
	}
	if _, err := UnmarshalStreamDone(make([]byte, 18)); err == nil {
		t.Error("long stream-done accepted")
	}
	// Version-1 payloads (pre-Gen layouts) must be rejected, not
	// misparsed: the handshake version gate is backed by strict sizes.
	if _, err := UnmarshalStreamRequest(make([]byte, 24)); err == nil {
		t.Error("v1 stream-request accepted")
	}
	if _, err := UnmarshalStreamDone(make([]byte, 13)); err == nil {
		t.Error("v1 stream-done accepted")
	}
}

// TestMsgTypeString covers diagnostics formatting.
func TestMsgTypeString(t *testing.T) {
	for _, mt := range []MsgType{MsgHello, MsgHelloAck, MsgStreamRequest, MsgStreamDone, MsgBye} {
		if s := mt.String(); s == "" || strings.HasPrefix(s, "MsgType(") {
			t.Errorf("MsgType %d formats as %q", mt, s)
		}
	}
	if !strings.HasPrefix(MsgType(99).String(), "MsgType(") {
		t.Error("unknown message type should format with its number")
	}
}

// TestNegotiate pins the version-choice rule: highest version inside
// both ranges, error when they miss each other.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		min, max uint16
		want     uint16
		ok       bool
	}{
		{VersionMin, Version, Version, true},       // same build
		{VersionMin, VersionMin, VersionMin, true}, // legacy exact hello in range
		{Version, Version + 5, Version, true},      // newer peer meets us at our max
		{VersionMin - 1, VersionMin, VersionMin, true},
		{Version + 1, Version + 9, 0, false}, // peer too new throughout
		{0, VersionMin - 1, 0, false},        // peer too old throughout
	}
	for _, c := range cases {
		got, err := Negotiate(c.min, c.max)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("Negotiate(%d, %d) = %d, %v; want %d", c.min, c.max, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("Negotiate(%d, %d) accepted a disjoint range", c.min, c.max)
		}
	}
}

// TestHelloRangeForms: the sender-side parser takes the 6-byte range
// hello and refuses everything else, the old 4-byte exact-version form
// included.
func TestHelloRangeForms(t *testing.T) {
	ranged, err := UnmarshalHelloRange(MarshalHelloRange(HelloRange{Min: 2, Max: 3, UDPPort: 8888}))
	if err != nil || ranged != (HelloRange{Min: 2, Max: 3, UDPPort: 8888}) {
		t.Fatalf("range hello parsed as %+v, %v", ranged, err)
	}
	if _, err := UnmarshalHelloRange([]byte{0, 2, 0x1e, 0x61}); err == nil {
		t.Error("4-byte exact-version hello accepted")
	}
	if _, err := UnmarshalHelloRange(make([]byte, 5)); err == nil {
		t.Error("5-byte hello accepted")
	}
	if _, err := UnmarshalHelloRange(MarshalHelloRange(HelloRange{Min: 3, Max: 2})); err == nil {
		t.Error("inverted version range accepted")
	}
}

// TestHelloAckForms: the ack is exactly the 2-byte chosen version; an
// empty or 1-byte payload is refused.
func TestHelloAckForms(t *testing.T) {
	ack, err := UnmarshalHelloAck(MarshalHelloAck(HelloAck{Version: 3}))
	if err != nil || ack.Version != 3 {
		t.Fatalf("ack round trip: %+v, %v", ack, err)
	}
	if _, err := UnmarshalHelloAck(nil); err == nil {
		t.Error("empty ack accepted")
	}
	if _, err := UnmarshalHelloAck([]byte{1}); err == nil {
		t.Error("1-byte ack accepted")
	}
}
