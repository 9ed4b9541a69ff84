// Package coord is the fleet control plane: a coordinator
// (cmd/pathload-coord) that owns the path table and an agent runtime
// (pathload -agent) that measures whatever it is leased.
//
// Agents register over a small versioned control protocol — a sibling
// of internal/wire's framing and range negotiation, with its own magic
// and a frame limit sized for digest pushes — then heartbeat to renew
// their lease TTLs, and periodically push tsstore contributions
// (retained points + all-time digests) that the coordinator federates
// into one global store behind the existing /metrics /series /mrtg
// scrape surface. The lease state machine itself (State) is a pure,
// clock-explicit core, which is what makes the multi-agent harness
// tests deterministic down to the byte.
package coord

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
	"unicode/utf8"

	"repro/internal/tsstore"
	"repro/internal/wire"
)

// protoMagic identifies coordination control streams ("SLCP" — SLoPS
// control plane; distinct from wire.Magic so a prober dialed at a
// coordinator, or vice versa, fails fast instead of misparsing).
const protoMagic uint32 = 0x534c4350

// Version is the control-plane protocol version this build speaks.
// It defines hello/hello-ack with wire-style range negotiation,
// heartbeat/assign leasing, contribution push/ack with points and the
// digest in tsstore's compact forms (version 3; version 2 pushed
// fixed-width ones), the authentication handshake (challenge/auth), and
// the versioned error frame. Agents and coordinator are built from the
// same tree, so VersionMin is Version: a peer of another generation is
// refused at the hello.
const (
	Version    uint16 = 3
	VersionMin        = Version
)

// ErrVersionMismatch reports peers whose version ranges do not
// intersect.
var ErrVersionMismatch = errors.New("coord: no protocol version in common")

// ErrRejected reports that the coordinator refused this agent with a
// versioned error frame (bad credentials, rate limit, version gate).
// Unlike a broken connection it is not retryable: the agent's Run loop
// stops instead of hammering the control port.
var ErrRejected = errors.New("coord: rejected by coordinator")

// Negotiate picks the session version: the highest version inside both
// the peer's advertised range and this build's — the wire.Negotiate
// rule applied to the control plane.
func Negotiate(peerMin, peerMax uint16) (uint16, error) {
	return wire.NegotiateWithin(VersionMin, Version, peerMin, peerMax, ErrVersionMismatch)
}

// Control message types.
type msgType uint8

const (
	msgHello     msgType = iota + 1 // agent → coord: version range + name
	msgHelloAck                     // coord → agent: chosen version + timing
	msgHeartbeat                    // agent → coord: liveness, lease renewal
	msgAssign                       // coord → agent: current lease set (heartbeat answer)
	msgPush                         // agent → coord: one path's Contribution
	msgPushAck                      // coord → agent: applied / stale
	msgBye                          // either: clean close (coord: please re-register)

	// Version 2 additions.
	msgChallenge // coord → agent: auth nonce (only when a secret is set)
	msgAuth      // agent → coord: HMAC over nonce‖name
	msgError     // coord → agent: versioned rejection, then close
)

// String names the message type.
func (t msgType) String() string {
	switch t {
	case msgHello:
		return "hello"
	case msgHelloAck:
		return "hello-ack"
	case msgHeartbeat:
		return "heartbeat"
	case msgAssign:
		return "assign"
	case msgPush:
		return "push"
	case msgPushAck:
		return "push-ack"
	case msgBye:
		return "bye"
	case msgChallenge:
		return "challenge"
	case msgAuth:
		return "auth"
	case msgError:
		return "error"
	default:
		return fmt.Sprintf("msgType(%d)", uint8(t))
	}
}

// maxFrame bounds a control frame payload. Unlike wire's 1 KiB, a push
// carries a whole retained window (up to DefaultCapacity points with
// error strings) plus a digest, so the limit is 1 MiB — still small
// enough to cap what a garbage length prefix can make us allocate.
const maxFrame = 1 << 20

// writeFrame writes one length-prefixed control frame:
// [magic u32][type u8][len u32][payload].
func writeFrame(w io.Writer, t msgType, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("coord: control payload %d exceeds limit %d", len(payload), maxFrame)
	}
	hdr := make([]byte, 9)
	binary.BigEndian.PutUint32(hdr[0:], protoMagic)
	hdr[4] = uint8(t)
	binary.BigEndian.PutUint32(hdr[5:], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("coord: writing control header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("coord: writing control payload: %w", err)
		}
	}
	return nil
}

// readFrame reads one control frame.
func readFrame(r io.Reader) (msgType, []byte, error) {
	hdr := make([]byte, 9)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint32(hdr[0:]) != protoMagic {
		return 0, nil, errors.New("coord: bad control magic")
	}
	t := msgType(hdr[4])
	n := binary.BigEndian.Uint32(hdr[5:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("coord: control payload %d exceeds limit %d", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("coord: reading control payload: %w", err)
	}
	return t, payload, nil
}

// --- payload encoding -------------------------------------------------
//
// Big-endian throughout; strings are u16-length-prefixed UTF-8
// (wire.AppendString), byte runs u32-length-prefixed. Every decoder
// reads its payload linearly through a wire.Reader, whose sticky error
// lets it check once, and returns through wire.Finish, so a truncated
// or over-long payload yields an error and a zero message, never a
// half-filled one. A pushed point and digest are in tsstore's one byte
// form of each (AppendCompact), the bytes an archive's point records
// and checkpoints hold.

// helloMsg opens a control session: the agent's version range and name.
type helloMsg struct {
	Min, Max uint16
	Name     string
}

func marshalHello(h helloMsg) []byte {
	buf := binary.BigEndian.AppendUint16(nil, h.Min)
	buf = binary.BigEndian.AppendUint16(buf, h.Max)
	return wire.AppendString(buf, h.Name)
}

func unmarshalHello(b []byte) (helloMsg, error) {
	d := wire.NewReader("coord: hello payload", b)
	h := helloMsg{Min: d.U16(), Max: d.U16(), Name: d.Str()}
	if h.Min > h.Max {
		return helloMsg{}, fmt.Errorf("coord: inverted hello version range [%d, %d]", h.Min, h.Max)
	}
	return wire.Finish(&d, h)
}

// helloAckMsg answers a hello: the chosen version plus the
// coordinator's timing contract — the agent liveness TTL and the
// rebalance epoch — so agents size their heartbeat cadence from the
// authority that enforces it.
type helloAckMsg struct {
	Version uint16
	TTL     time.Duration
	Epoch   time.Duration
}

func marshalHelloAck(a helloAckMsg) []byte {
	buf := binary.BigEndian.AppendUint16(nil, a.Version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.TTL))
	return binary.BigEndian.AppendUint64(buf, uint64(a.Epoch))
}

func unmarshalHelloAck(b []byte) (helloAckMsg, error) {
	d := wire.NewReader("coord: hello-ack payload", b)
	return wire.Finish(&d, helloAckMsg{Version: d.U16(), TTL: d.Dur(), Epoch: d.Dur()})
}

// heartbeatMsg renews the agent's TTL; Seq is echoed in the assign
// answer so an agent can match replies after a resync.
type heartbeatMsg struct {
	Seq uint64
}

func marshalHeartbeat(h heartbeatMsg) []byte {
	return binary.BigEndian.AppendUint64(nil, h.Seq)
}

func unmarshalHeartbeat(b []byte) (heartbeatMsg, error) {
	d := wire.NewReader("coord: heartbeat payload", b)
	return wire.Finish(&d, heartbeatMsg{Seq: d.U64()})
}

// assignMsg is the heartbeat answer: the agent's complete current
// lease set (idempotent — the agent reconciles against it, so a lost
// assign is healed by the next one), its aggregate probe budget, and
// each lease's conflict group so the agent can stagger paths that
// share a tight link.
type assignMsg struct {
	Seq    uint64
	Budget float64 // bits/s across the agent's leases; 0 = uncapped
	Leases []Lease
}

func marshalAssign(a assignMsg) []byte {
	buf := binary.BigEndian.AppendUint64(nil, a.Seq)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(a.Budget))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.Leases)))
	for _, l := range a.Leases {
		buf = binary.BigEndian.AppendUint32(buf, uint32(l.Group))
		buf = wire.AppendString(buf, l.Path)
	}
	return buf
}

func unmarshalAssign(b []byte) (assignMsg, error) {
	d := wire.NewReader("coord: assign payload", b)
	a := assignMsg{Seq: d.U64(), Budget: d.F64()}
	n := int(d.U32())
	if n > maxFrame/8 {
		return assignMsg{}, fmt.Errorf("coord: assign claims %d leases", n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		l := Lease{Group: int(d.U32())}
		l.Path = d.Str()
		a.Leases = append(a.Leases, l)
	}
	return wire.Finish(&d, a)
}

// maxErrLen caps a pushed point's error text so a pathological error
// string cannot blow the frame limit.
const maxErrLen = 256

// minPointLen is the least encoded size of a point: three one-byte
// varints, three float64s and a one-byte string length.
const minPointLen = 3 + 3*8 + 1

// errBadDigest marks a push payload that decodes but whose digest
// tsstore refuses: the server acks such a push unapplied and keeps the
// session, where a malformed payload ends it.
var errBadDigest = errors.New("coord: push digest refused")

// marshalPush encodes one path's contribution as a push payload, in a
// buffer of its exact size, allocated once: Seq, path, Total, Errors,
// the points (tsstore.Point's AppendCompact form, error text cut to
// maxErrLen) and the digest's AppendCompact blob behind its u32 length,
// empty when there is none. The agent name is implied by the session.
// Point wall clocks are deliberately not on the wire: the deterministic
// export surface never renders them, and omitting them keeps federated
// snapshots reproducible. A Log stores applied pushes as these same
// bytes.
func marshalPush(path string, c tsstore.Contribution) []byte {
	digestLen := 0
	if c.Digest != nil {
		digestLen = c.Digest.CompactSize()
	}
	size := 8 + 2 + len(path) + 8 + 8 + 4 + 4 + digestLen
	for _, pt := range c.Points {
		pt.Err = cutErr(pt.Err)
		size += pt.CompactSize()
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, c.Seq)
	buf = wire.AppendString(buf, path)
	buf = binary.BigEndian.AppendUint64(buf, c.Total)
	buf = binary.BigEndian.AppendUint64(buf, c.Errors)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Points)))
	for _, pt := range c.Points {
		pt.Err = cutErr(pt.Err)
		buf = pt.AppendCompact(buf)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(digestLen))
	if c.Digest != nil {
		buf = c.Digest.AppendCompact(buf)
	}
	return buf
}

// cutErr cuts an error text to at most maxErrLen bytes at a rune
// boundary, so the cut never leaves half a UTF-8 sequence behind.
func cutErr(s string) string {
	if len(s) <= maxErrLen {
		return s
	}
	// The rune the limit splits began at most utf8.UTFMax-1 bytes back.
	for i := maxErrLen; i > maxErrLen-utf8.UTFMax; i-- {
		if utf8.RuneStart(s[i]) {
			return s[:i]
		}
	}
	return s[:maxErrLen]
}

// unmarshalPush decodes a push payload into the path and the
// contribution it carries. Points are sized from their count once the
// bytes left can hold that many, and the digest is decoded straight
// from the payload. A payload that decodes but carries a digest
// tsstore refuses returns its path and its contribution without the
// digest, and an error wrapping errBadDigest.
func unmarshalPush(b []byte) (string, tsstore.Contribution, error) {
	d := wire.NewReader("coord: push payload", b)
	c := tsstore.Contribution{Seq: d.U64()}
	path := d.Str()
	c.Total = d.U64()
	c.Errors = d.U64()
	n := int(d.U32())
	if n > d.Len()/minPointLen {
		return "", tsstore.Contribution{}, fmt.Errorf("coord: push claims %d points in %d bytes", n, d.Len())
	}
	if n > 0 {
		c.Points = make([]tsstore.Point, n)
		for i := range c.Points {
			c.Points[i] = tsstore.ReadCompactPoint(&d)
		}
	}
	digest := d.Bytes()
	if err := d.Done(); err != nil {
		return "", tsstore.Contribution{}, err
	}
	if len(digest) > 0 {
		dg, err := tsstore.UnmarshalDigest(digest)
		if err != nil {
			return path, c, fmt.Errorf("%w: %w", errBadDigest, err)
		}
		c.Digest = dg
	}
	return path, c, nil
}

// pushAckMsg confirms a push; Applied is false when the federation
// already held a contribution at least as new (re-delivery).
type pushAckMsg struct {
	Seq     uint64
	Applied bool
}

func marshalPushAck(a pushAckMsg) []byte {
	buf := binary.BigEndian.AppendUint64(nil, a.Seq)
	if a.Applied {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func unmarshalPushAck(b []byte) (pushAckMsg, error) {
	d := wire.NewReader("coord: push-ack payload", b)
	return wire.Finish(&d, pushAckMsg{Seq: d.U64(), Applied: d.U8() != 0})
}

// nonceLen is the challenge nonce size. 32 random bytes make nonce
// reuse (and therefore MAC replay) negligible over any deployment
// lifetime.
const nonceLen = 32

// challengeMsg carries the coordinator's auth nonce.
func marshalChallenge(nonce []byte) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(nonce)))
	return append(buf, nonce...)
}

func unmarshalChallenge(b []byte) ([]byte, error) {
	d := wire.NewReader("coord: challenge payload", b)
	nonce := append([]byte(nil), d.Bytes()...)
	if err := d.Done(); err != nil {
		return nil, err
	}
	if len(nonce) != nonceLen {
		return nil, fmt.Errorf("coord: challenge nonce is %d bytes, want %d", len(nonce), nonceLen)
	}
	return nonce, nil
}

// authMsg answers a challenge with the MAC.
func marshalAuth(mac []byte) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(mac)))
	return append(buf, mac...)
}

func unmarshalAuth(b []byte) ([]byte, error) {
	d := wire.NewReader("coord: auth payload", b)
	return wire.Finish(&d, append([]byte(nil), d.Bytes()...))
}

// authMAC is the proof of secret knowledge: HMAC-SHA256 keyed by the
// shared secret over nonce‖name. Binding the agent name into the MAC
// stops a snooped handshake from being replayed under another
// identity (the nonce already stops replaying it at all).
func authMAC(secret string, nonce []byte, name string) []byte {
	m := hmac.New(sha256.New, []byte(secret))
	m.Write(nonce)
	m.Write([]byte(name))
	return m.Sum(nil)
}

// Rejection codes carried by msgError.
const (
	errCodeAuth    uint16 = 1 // bad or missing credentials
	errCodeRate    uint16 = 2 // per-remote rate limit tripped
	errCodeVersion uint16 = 3 // negotiated version cannot satisfy policy
)

// errorMsg is the versioned rejection frame: the speaker's protocol
// version (so even a refused dialer learns what the coordinator
// speaks), a machine-readable code, and human-readable text.
type errorMsg struct {
	Version uint16
	Code    uint16
	Text    string
}

func marshalError(e errorMsg) []byte {
	buf := binary.BigEndian.AppendUint16(nil, e.Version)
	buf = binary.BigEndian.AppendUint16(buf, e.Code)
	return wire.AppendString(buf, e.Text)
}

func unmarshalError(b []byte) (errorMsg, error) {
	d := wire.NewReader("coord: error payload", b)
	return wire.Finish(&d, errorMsg{Version: d.U16(), Code: d.U16(), Text: d.Str()})
}
