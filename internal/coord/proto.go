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

	"repro/internal/tsstore"
	"repro/internal/wire"
)

// protoMagic identifies coordination control streams ("SLCP" — SLoPS
// control plane; distinct from wire.Magic so a prober dialed at a
// coordinator, or vice versa, fails fast instead of misparsing).
const protoMagic uint32 = 0x534c4350

// Version is the newest control-plane protocol version this build
// speaks; VersionMin the oldest. Version 1 defines hello/hello-ack
// with wire-style range negotiation, heartbeat/assign leasing, and
// contribution push/ack. Version 2 adds the authentication handshake
// (challenge/auth) and the versioned error frame — a coordinator with
// a shared secret configured refuses v1 dialers, everything else is
// wire-compatible.
const (
	Version    uint16 = 2
	VersionMin uint16 = 1
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
// half-filled one. A pushed point is tsstore.Point's own layout
// (AppendBinary/ReadPoint), the same bytes an archive's KindPoint
// record holds (new archive records use the compact form).

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

// pushMsg carries one path's tsstore Contribution. The agent name is
// implied by the session. Point wall clocks are deliberately not on
// the wire: the deterministic export surface never renders them, and
// omitting them keeps federated snapshots reproducible.
type pushMsg struct {
	Seq          uint64
	Path         string
	Total, Errs  uint64
	Points       []tsstore.Point
	DigestBinary []byte // Digest.MarshalBinary, empty when no digest
}

// maxErrLen caps a pushed point's error text so a pathological error
// string cannot blow the frame limit.
const maxErrLen = 256

func marshalPush(p pushMsg) []byte {
	buf := binary.BigEndian.AppendUint64(nil, p.Seq)
	buf = wire.AppendString(buf, p.Path)
	buf = binary.BigEndian.AppendUint64(buf, p.Total)
	buf = binary.BigEndian.AppendUint64(buf, p.Errs)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Points)))
	for _, pt := range p.Points {
		if len(pt.Err) > maxErrLen {
			pt.Err = pt.Err[:maxErrLen]
		}
		buf = pt.AppendBinary(buf)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.DigestBinary)))
	return append(buf, p.DigestBinary...)
}

func unmarshalPush(b []byte) (pushMsg, error) {
	d := wire.NewReader("coord: push payload", b)
	p := pushMsg{Seq: d.U64()}
	p.Path = d.Str()
	p.Total = d.U64()
	p.Errs = d.U64()
	n := int(d.U32())
	if n > maxFrame/48 {
		return pushMsg{}, fmt.Errorf("coord: push claims %d points", n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		p.Points = append(p.Points, tsstore.ReadPoint(&d))
	}
	p.DigestBinary = append([]byte(nil), d.Bytes()...)
	return wire.Finish(&d, p)
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

// contributionToPush converts a tsstore Contribution into its wire
// form; digest marshaling cannot fail today but the signature keeps
// room for future digest versions.
func contributionToPush(path string, c tsstore.Contribution) (pushMsg, error) {
	p := pushMsg{Seq: c.Seq, Path: path, Total: c.Total, Errs: c.Errors, Points: c.Points}
	if c.Digest != nil {
		blob, err := c.Digest.MarshalBinary()
		if err != nil {
			return pushMsg{}, err
		}
		p.DigestBinary = blob
	}
	return p, nil
}

// pushToContribution rebuilds the Contribution a push carried.
func pushToContribution(p pushMsg) (tsstore.Contribution, error) {
	c := tsstore.Contribution{Seq: p.Seq, Total: p.Total, Errors: p.Errs, Points: p.Points}
	if len(p.DigestBinary) > 0 {
		d, err := tsstore.UnmarshalDigest(p.DigestBinary)
		if err != nil {
			return tsstore.Contribution{}, err
		}
		c.Digest = d
	}
	return c, nil
}
