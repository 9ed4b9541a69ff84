// Package wire defines the binary formats of the real-network pathload
// tool: fixed-layout probe packets on the UDP data channel and
// length-prefixed control messages on the TCP control channel. All
// integers are big-endian. The formats are versioned through a magic
// number so incompatible peers fail fast instead of mis-measuring.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic identifies pathload probe packets and control streams.
const Magic uint32 = 0x534c5053 // "SLPS"

// ProbeHeaderSize is the wire size of a probe packet header; probe
// packets are padded to the stream's configured packet size L.
const ProbeHeaderSize = 4 + 4 + 4 + 4 + 4 + 8

// A ProbeHeader leads every UDP probe packet.
type ProbeHeader struct {
	Gen    uint32 // request generation, echoed from the StreamRequest
	Fleet  uint32 // fleet index within a measurement
	Stream uint32 // stream index within the fleet
	Seq    uint32 // packet index within the stream
	SentNs int64  // sender timestamp, nanoseconds (sender clock)
}

// MarshalProbe encodes h into a buffer of the given total packet size,
// zero-padding the remainder. size must fit the header.
func MarshalProbe(h ProbeHeader, size int) ([]byte, error) {
	if size < ProbeHeaderSize {
		return nil, fmt.Errorf("wire: probe size %d below header size %d", size, ProbeHeaderSize)
	}
	buf := make([]byte, size)
	PutProbe(buf, h)
	return buf, nil
}

// PutProbe encodes h into the first ProbeHeaderSize bytes of buf and
// leaves the rest alone, so a sender can stamp packet after packet into
// one buffer with no allocation between reading the clock and the
// write. Like binary.BigEndian.PutUint32 it panics when buf is too
// short.
func PutProbe(buf []byte, h ProbeHeader) {
	_ = buf[ProbeHeaderSize-1] // one bounds check, before any byte is written
	binary.BigEndian.PutUint32(buf[0:], Magic)
	binary.BigEndian.PutUint32(buf[4:], h.Gen)
	binary.BigEndian.PutUint32(buf[8:], h.Fleet)
	binary.BigEndian.PutUint32(buf[12:], h.Stream)
	binary.BigEndian.PutUint32(buf[16:], h.Seq)
	binary.BigEndian.PutUint64(buf[20:], uint64(h.SentNs))
}

// ErrNotProbe reports a datagram that is not a pathload probe.
var ErrNotProbe = errors.New("wire: not a pathload probe packet")

// UnmarshalProbe decodes a probe packet header.
func UnmarshalProbe(buf []byte) (ProbeHeader, error) {
	if len(buf) < ProbeHeaderSize {
		return ProbeHeader{}, fmt.Errorf("%w: %d bytes", ErrNotProbe, len(buf))
	}
	if binary.BigEndian.Uint32(buf[0:]) != Magic {
		return ProbeHeader{}, ErrNotProbe
	}
	return ProbeHeader{
		Gen:    binary.BigEndian.Uint32(buf[4:]),
		Fleet:  binary.BigEndian.Uint32(buf[8:]),
		Stream: binary.BigEndian.Uint32(buf[12:]),
		Seq:    binary.BigEndian.Uint32(buf[16:]),
		SentNs: int64(binary.BigEndian.Uint64(buf[20:])),
	}, nil
}

// Control message types.
type MsgType uint8

// Control channel messages. The receiver (measurement initiator) sends
// StreamRequest; the sender answers each stream with StreamDone after
// emitting it. Ping/Pong (payload-less) keep an idle session alive
// across long re-measurement gaps: any message resets the sender's
// session idle deadline.
const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgStreamRequest
	MsgStreamDone
	MsgBye
	MsgPing
	MsgPong
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgStreamRequest:
		return "stream-request"
	case MsgStreamDone:
		return "stream-done"
	case MsgBye:
		return "bye"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Version is the newest control protocol version this build speaks.
// Version 2 added the Gen request-generation tag to StreamRequest,
// StreamDone, and ProbeHeader — so receivers can resynchronize a
// control channel after an errored round and reject data-plane
// stragglers across rounds that reuse fleet/stream indices — and the
// Ping/Pong session keepalive. Version 3 keeps every version-2 message
// layout and adds the range handshake: a 6-byte hello advertising a
// [min, max] version range and a hello-ack carrying the version the
// sender chose, so mixed-version fleets negotiate instead of
// hard-failing on any skew.
const Version uint16 = 3

// VersionMin is the oldest protocol version this build still speaks.
// Version 1 payload layouts (pre-Gen) are gone; 2 is the floor.
const VersionMin uint16 = 2

// ErrVersionMismatch reports peers whose version ranges do not
// intersect.
var ErrVersionMismatch = errors.New("wire: no protocol version in common")

// Negotiate picks the version for a session with a peer advertising
// [peerMin, peerMax]: the highest version inside both that range and
// this build's [VersionMin, Version].
func Negotiate(peerMin, peerMax uint16) (uint16, error) {
	chosen := Version
	if peerMax < chosen {
		chosen = peerMax
	}
	if chosen < VersionMin || chosen < peerMin {
		return 0, fmt.Errorf("%w: peer speaks [%d, %d], this build [%d, %d]",
			ErrVersionMismatch, peerMin, peerMax, VersionMin, Version)
	}
	return chosen, nil
}

// A Hello opens a control session and advertises the UDP port the
// receiver listens on. This is the legacy (version ≤ 2) exact-version
// form; version-3 peers open with a HelloRange instead and fall back
// to this one for old senders.
type Hello struct {
	Version uint16
	UDPPort uint16
}

// A HelloRange is the version-3 session opener: the receiver proposes
// a whole version range and the sender picks.
type HelloRange struct {
	Min, Max uint16
	UDPPort  uint16
}

// A HelloAck answers a hello with the version the sender chose for the
// session. Legacy (version ≤ 2) senders ack with an empty payload,
// implying the exact version the hello proposed; legacy receivers
// ignore the ack payload entirely, which is what makes adding it
// backward compatible.
type HelloAck struct {
	Version uint16
}

// A StreamRequest asks the sender to emit one periodic stream. Gen is
// an opaque receiver-chosen generation number the sender echoes in the
// matching StreamDone and in every probe packet of the stream; a
// receiver that gave up on an earlier request uses it to tell the stale
// answer from the one it is waiting for.
type StreamRequest struct {
	Gen      uint32
	Fleet    uint32
	Stream   uint32
	K        uint32 // packets
	L        uint32 // packet size, bytes (UDP payload)
	PeriodNs uint64 // packet interspacing
}

// A StreamDone reports how the sender actually paced the stream.
type StreamDone struct {
	Gen     uint32 // echoed from the StreamRequest
	Fleet   uint32
	Stream  uint32
	Sent    uint32 // packets emitted
	Flagged uint8  // 1 if pacing was disturbed (context switch etc.)
}

// Maximum control frame payload; defends against garbage lengths.
const maxFrame = 1024

// WriteMessage writes a length-prefixed control frame:
// [magic u32][type u8][len u16][payload].
func WriteMessage(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("wire: control payload %d exceeds limit %d", len(payload), maxFrame)
	}
	hdr := make([]byte, 7)
	binary.BigEndian.PutUint32(hdr[0:], Magic)
	hdr[4] = uint8(t)
	binary.BigEndian.PutUint16(hdr[5:], uint16(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("wire: writing control header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("wire: writing control payload: %w", err)
		}
	}
	return nil
}

// ReadMessage reads one control frame.
func ReadMessage(r io.Reader) (MsgType, []byte, error) {
	hdr := make([]byte, 7)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint32(hdr[0:]) != Magic {
		return 0, nil, errors.New("wire: bad control magic")
	}
	t := MsgType(hdr[4])
	n := binary.BigEndian.Uint16(hdr[5:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("wire: control payload %d exceeds limit %d", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: reading control payload: %w", err)
	}
	return t, payload, nil
}

// MarshalHello encodes a Hello payload.
func MarshalHello(h Hello) []byte {
	buf := make([]byte, 4)
	binary.BigEndian.PutUint16(buf[0:], h.Version)
	binary.BigEndian.PutUint16(buf[2:], h.UDPPort)
	return buf
}

// UnmarshalHello decodes a Hello payload.
func UnmarshalHello(buf []byte) (Hello, error) {
	if len(buf) != 4 {
		return Hello{}, fmt.Errorf("wire: hello payload %d bytes, want 4", len(buf))
	}
	return Hello{
		Version: binary.BigEndian.Uint16(buf[0:]),
		UDPPort: binary.BigEndian.Uint16(buf[2:]),
	}, nil
}

// MarshalHelloRange encodes a version-3 range hello:
// [min u16][max u16][udp port u16].
func MarshalHelloRange(h HelloRange) []byte {
	buf := make([]byte, 6)
	binary.BigEndian.PutUint16(buf[0:], h.Min)
	binary.BigEndian.PutUint16(buf[2:], h.Max)
	binary.BigEndian.PutUint16(buf[4:], h.UDPPort)
	return buf
}

// UnmarshalHelloRange decodes a version-3 range hello payload.
func UnmarshalHelloRange(buf []byte) (HelloRange, error) {
	if len(buf) != 6 {
		return HelloRange{}, fmt.Errorf("wire: range hello payload %d bytes, want 6", len(buf))
	}
	h := HelloRange{
		Min:     binary.BigEndian.Uint16(buf[0:]),
		Max:     binary.BigEndian.Uint16(buf[2:]),
		UDPPort: binary.BigEndian.Uint16(buf[4:]),
	}
	if h.Min > h.Max {
		return HelloRange{}, fmt.Errorf("wire: inverted hello version range [%d, %d]", h.Min, h.Max)
	}
	return h, nil
}

// ParseHello accepts either hello form — the 6-byte version range or
// the legacy 4-byte exact version (which parses as the degenerate
// range [v, v]) — so one sender code path serves both generations of
// receivers.
func ParseHello(buf []byte) (HelloRange, error) {
	switch len(buf) {
	case 4:
		h, err := UnmarshalHello(buf)
		if err != nil {
			return HelloRange{}, err
		}
		return HelloRange{Min: h.Version, Max: h.Version, UDPPort: h.UDPPort}, nil
	case 6:
		return UnmarshalHelloRange(buf)
	default:
		return HelloRange{}, fmt.Errorf("wire: hello payload %d bytes, want 4 (legacy) or 6 (range)", len(buf))
	}
}

// MarshalHelloAck encodes a hello-ack payload carrying the chosen
// version.
func MarshalHelloAck(a HelloAck) []byte {
	buf := make([]byte, 2)
	binary.BigEndian.PutUint16(buf, a.Version)
	return buf
}

// UnmarshalHelloAck decodes a hello-ack payload. An empty payload is a
// legacy ack: the sender accepted exactly the version the hello
// proposed, reported here as fallback.
func UnmarshalHelloAck(buf []byte, fallback uint16) (HelloAck, error) {
	switch len(buf) {
	case 0:
		return HelloAck{Version: fallback}, nil
	case 2:
		return HelloAck{Version: binary.BigEndian.Uint16(buf)}, nil
	default:
		return HelloAck{}, fmt.Errorf("wire: hello-ack payload %d bytes, want 0 (legacy) or 2", len(buf))
	}
}

// MarshalStreamRequest encodes a StreamRequest payload.
func MarshalStreamRequest(q StreamRequest) []byte {
	buf := make([]byte, 28)
	binary.BigEndian.PutUint32(buf[0:], q.Gen)
	binary.BigEndian.PutUint32(buf[4:], q.Fleet)
	binary.BigEndian.PutUint32(buf[8:], q.Stream)
	binary.BigEndian.PutUint32(buf[12:], q.K)
	binary.BigEndian.PutUint32(buf[16:], q.L)
	binary.BigEndian.PutUint64(buf[20:], q.PeriodNs)
	return buf
}

// UnmarshalStreamRequest decodes a StreamRequest payload.
func UnmarshalStreamRequest(buf []byte) (StreamRequest, error) {
	if len(buf) != 28 {
		return StreamRequest{}, fmt.Errorf("wire: stream-request payload %d bytes, want 28", len(buf))
	}
	return StreamRequest{
		Gen:      binary.BigEndian.Uint32(buf[0:]),
		Fleet:    binary.BigEndian.Uint32(buf[4:]),
		Stream:   binary.BigEndian.Uint32(buf[8:]),
		K:        binary.BigEndian.Uint32(buf[12:]),
		L:        binary.BigEndian.Uint32(buf[16:]),
		PeriodNs: binary.BigEndian.Uint64(buf[20:]),
	}, nil
}

// MarshalStreamDone encodes a StreamDone payload.
func MarshalStreamDone(d StreamDone) []byte {
	buf := make([]byte, 17)
	binary.BigEndian.PutUint32(buf[0:], d.Gen)
	binary.BigEndian.PutUint32(buf[4:], d.Fleet)
	binary.BigEndian.PutUint32(buf[8:], d.Stream)
	binary.BigEndian.PutUint32(buf[12:], d.Sent)
	buf[16] = d.Flagged
	return buf
}

// UnmarshalStreamDone decodes a StreamDone payload.
func UnmarshalStreamDone(buf []byte) (StreamDone, error) {
	if len(buf) != 17 {
		return StreamDone{}, fmt.Errorf("wire: stream-done payload %d bytes, want 17", len(buf))
	}
	return StreamDone{
		Gen:     binary.BigEndian.Uint32(buf[0:]),
		Fleet:   binary.BigEndian.Uint32(buf[4:]),
		Stream:  binary.BigEndian.Uint32(buf[8:]),
		Sent:    binary.BigEndian.Uint32(buf[12:]),
		Flagged: buf[16],
	}, nil
}
