package udprobe

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"

	pathload "repro"
)

// TestHandshakeNegotiatesNewestVersion: two current-build peers must
// settle on the newest protocol version and measure normally.
func TestHandshakeNegotiatesNewestVersion(t *testing.T) {
	addr := startSender(t)
	p, err := Dial(addr, ProberConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.SendStream(pathload.StreamSpec{K: 10, L: 150, T: 300 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 10 {
		t.Fatalf("sent %d of 10 after version-3 handshake", res.Sent)
	}
}

// sendHello opens a control connection to addr and sends payload as
// its hello.
func sendHello(t *testing.T, addr string, payload []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := wire.WriteMessage(conn, wire.MsgHello, payload); err != nil {
		t.Fatal(err)
	}
	return conn
}

// readRefusal reads the sender's answer to a hello it cannot serve: a
// bye whose payload is the reason, then the hang-up. It returns the
// reason.
func readRefusal(t *testing.T, conn net.Conn) string {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	mt, reason, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatalf("sender hung up without saying why: %v", err)
	}
	if mt != wire.MsgBye {
		t.Fatalf("sender answered a hello it cannot serve with %v, want a bye", mt)
	}
	if mt, _, err := wire.ReadMessage(conn); err == nil {
		t.Fatalf("sender sent %v after refusing the session", mt)
	}
	return string(reason)
}

// TestSenderRefusesExactVersionHello: the old 4-byte exact-version
// hello is not a session opener. The sender must refuse it with a bye
// that says why, never an ack.
func TestSenderRefusesExactVersionHello(t *testing.T) {
	conn := sendHello(t, startSender(t), []byte{0, 2, 0x1e, 0x61})
	if reason := readRefusal(t, conn); !strings.Contains(reason, "4 bytes") {
		t.Fatalf("refusal %q does not name the 4-byte hello", reason)
	}
}

// startOneShotSender runs a control listener that reads each
// connection's range hello, hands it to answer, and hangs up. It
// counts the connections it accepts.
func startOneShotSender(t *testing.T, answer func(conn net.Conn, hello wire.HelloRange)) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			mt, payload, err := wire.ReadMessage(conn)
			if err == nil && mt == wire.MsgHello {
				if hello, err := wire.UnmarshalHelloRange(payload); err == nil {
					answer(conn, hello)
				}
			}
			conn.Close()
		}
	}()
	return ln.Addr().String(), &accepted
}

// TestDialRefusesBadHelloAck: the ack is exactly the 2-byte version
// the sender chose, inside this build's range. A sender that hangs up
// after the hello, an empty ack, a 1-byte ack and an ack naming a
// version newer than this build each fail Dial, over one connection:
// there is no second hello form to redial with.
func TestDialRefusesBadHelloAck(t *testing.T) {
	for _, tc := range []struct {
		name string
		ack  []byte // nil: hang up without an ack
	}{
		{"hang-up", nil},
		{"empty ack", []byte{}},
		{"1-byte ack", []byte{byte(wire.Version)}},
		{"newer-version ack", wire.MarshalHelloAck(wire.HelloAck{Version: wire.Version + 1})},
	} {
		addr, accepted := startOneShotSender(t, func(conn net.Conn, _ wire.HelloRange) {
			if tc.ack != nil {
				wire.WriteMessage(conn, wire.MsgHelloAck, tc.ack)
			}
		})
		if p, err := Dial(addr, ProberConfig{ControlTimeout: 2 * time.Second}); err == nil {
			p.Close()
			t.Errorf("%s: Dial succeeded", tc.name)
		}
		if n := accepted.Load(); n != 1 {
			t.Errorf("%s: sender saw %d connections, want 1", tc.name, n)
		}
	}
}

// TestDialSilentSenderCostsOneTimeout: a sender that accepts the
// control connection and never answers is not a legacy sender. Dial
// must fail after one ControlTimeout over one connection, not redial
// with the legacy hello and wait a second timeout.
func TestDialSilentSenderCostsOneTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			held = append(held, conn) // read nothing, answer nothing
		}
	}()
	if p, err := Dial(ln.Addr().String(), ProberConfig{ControlTimeout: 100 * time.Millisecond}); err == nil {
		p.Close()
		t.Fatal("Dial succeeded against a silent sender")
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("silent sender saw %d connections, want 1", n)
	}
}

// TestSenderRejectsDisjointVersionRange: a receiver advertising only
// versions newer than this build must be refused at the handshake, not
// mis-served, and the bye refusing it names both ranges, so the
// receiver's error says which side to upgrade.
func TestSenderRejectsDisjointVersionRange(t *testing.T) {
	hello := wire.HelloRange{Min: wire.Version + 1, Max: wire.Version + 6, UDPPort: 1}
	reason := readRefusal(t, sendHello(t, startSender(t), wire.MarshalHelloRange(hello)))
	for _, want := range []string{
		fmt.Sprintf("[%d, %d]", hello.Min, hello.Max),
		fmt.Sprintf("[%d, %d]", wire.VersionMin, wire.Version),
	} {
		if !strings.Contains(reason, want) {
			t.Errorf("refusal %q does not name the range %s", reason, want)
		}
	}
}

// TestRefusalReasonIsCapped: a refusal's reason is cut to maxRefusal
// bytes, well inside the control frame's payload limit.
func TestRefusalReasonIsCapped(t *testing.T) {
	conn, peer := net.Pipe()
	defer peer.Close()
	go func() {
		refuse(conn, errors.New(strings.Repeat("x", 4*maxRefusal)))
		conn.Close()
	}()
	mt, reason, err := wire.ReadMessage(peer)
	if err != nil || mt != wire.MsgBye || len(reason) != maxRefusal {
		t.Fatalf("refusal read as %v with a %d-byte reason (err %v), want a bye of %d bytes", mt, len(reason), err, maxRefusal)
	}
}

// TestDialReportsSenderRefusal: a sender that answers the hello with a
// bye fails Dial with the bye's reason in the error.
func TestDialReportsSenderRefusal(t *testing.T) {
	const reason = "wire: no protocol version in common: peer speaks [3, 3], this build [4, 9]"
	addr, _ := startOneShotSender(t, func(conn net.Conn, _ wire.HelloRange) {
		wire.WriteMessage(conn, wire.MsgBye, []byte(reason))
	})
	p, err := Dial(addr, ProberConfig{ControlTimeout: 2 * time.Second})
	if err == nil {
		p.Close()
		t.Fatal("Dial succeeded against a refusing sender")
	}
	if want := "udprobe: sender refused the session: " + reason; err.Error() != want {
		t.Fatalf("Dial error %q, want %q", err, want)
	}
}

// startLaggedSender runs a control server whose replies (pong and
// stream-done) wait for the current value of *lagNs first — a control
// path whose latency the test can shift mid-session.
func startLaggedSender(t *testing.T, lagNs *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		mt, payload, err := wire.ReadMessage(conn)
		if err != nil || mt != wire.MsgHello {
			return
		}
		hello, err := wire.UnmarshalHelloRange(payload)
		if err != nil {
			return
		}
		version, err := wire.Negotiate(hello.Min, hello.Max)
		if err != nil {
			return
		}
		host, _, _ := net.SplitHostPort(conn.RemoteAddr().String())
		udp, err := net.DialUDP("udp", nil, &net.UDPAddr{IP: net.ParseIP(host), Port: int(hello.UDPPort)})
		if err != nil {
			return
		}
		defer udp.Close()
		if err := wire.WriteMessage(conn, wire.MsgHelloAck, wire.MarshalHelloAck(wire.HelloAck{Version: version})); err != nil {
			return
		}
		for {
			mt, payload, err := wire.ReadMessage(conn)
			if err != nil {
				return
			}
			time.Sleep(time.Duration(lagNs.Load()))
			switch mt {
			case wire.MsgPing:
				if err := wire.WriteMessage(conn, wire.MsgPong, nil); err != nil {
					return
				}
			case wire.MsgStreamRequest:
				req, err := wire.UnmarshalStreamRequest(payload)
				if err != nil {
					return
				}
				for i := uint32(0); i < req.K; i++ {
					buf, _ := wire.MarshalProbe(wire.ProbeHeader{
						Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream,
						Seq: i, SentNs: time.Now().UnixNano(),
					}, int(req.L))
					udp.Write(buf)
				}
				done := wire.StreamDone{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream, Sent: req.K}
				if err := wire.WriteMessage(conn, wire.MsgStreamDone, wire.MarshalStreamDone(done)); err != nil {
					return
				}
			default:
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestRTTRefreshTracksControlLatencyShift: the control path's latency
// rises mid-session; a prober that only measured the RTT at Dial would
// keep sizing gaps and deadlines with the stale value forever. The
// pre-stream refresh must fold the new latency into RTT().
func TestRTTRefreshTracksControlLatencyShift(t *testing.T) {
	var lagNs atomic.Int64
	addr := startLaggedSender(t, &lagNs)

	p, err := Dial(addr, ProberConfig{
		ControlTimeout: 3 * time.Second,
		RTTRefresh:     time.Nanosecond, // always stale: every stream re-measures
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	dialRTT := p.RTT()
	if dialRTT > 20*time.Millisecond {
		t.Fatalf("loopback dial RTT %v implausibly high, the shift below would prove nothing", dialRTT)
	}

	// The control path degrades after the handshake.
	const shift = 50 * time.Millisecond
	lagNs.Store(int64(shift))

	if _, err := p.SendStream(pathload.StreamSpec{K: 5, L: 150, T: 300 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if got := p.RTT(); got < shift {
		t.Fatalf("RTT() = %v after a %v control latency shift (dial-time estimate was %v) — the estimate was never refreshed", got, shift, dialRTT)
	}
}

// TestIdleKeepaliveRefreshesRTT: keepalive pings during a long Idle
// must refresh the estimate too, so a session that merely waits
// between rounds also tracks latency drift.
func TestIdleKeepaliveRefreshesRTT(t *testing.T) {
	var lagNs atomic.Int64
	addr := startLaggedSender(t, &lagNs)

	p, err := Dial(addr, ProberConfig{
		ControlTimeout: 3 * time.Second,
		KeepAlive:      20 * time.Millisecond, // chunk the idle into keepalive pings
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const shift = 40 * time.Millisecond
	lagNs.Store(int64(shift))
	if err := p.Idle(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := p.RTT(); got < shift {
		t.Fatalf("RTT() = %v after idle keepalives under a %v latency shift — keepalives did not refresh the estimate", got, shift)
	}
}
