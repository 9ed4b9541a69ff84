package udprobe

import (
	"net"
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
	if got := p.NegotiatedVersion(); got != wire.Version {
		t.Fatalf("negotiated version %d, want %d", got, wire.Version)
	}
	res, err := p.SendStream(pathload.StreamSpec{K: 10, L: 150, T: 300 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 10 {
		t.Fatalf("sent %d of 10 after version-3 handshake", res.Sent)
	}
}

// TestLegacyReceiverAgainstNewSender: a version-2 receiver opens with
// the 4-byte exact hello and ignores the ack payload (as the old Dial
// code did). The new sender must accept the legacy form, ack, and
// serve streams — mixed fleets where the sender upgrades first keep
// working.
func TestLegacyReceiverAgainstNewSender(t *testing.T) {
	addr := startSender(t)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	udp, err := net.ListenUDP("udp", &net.UDPAddr{})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	port := uint16(udp.LocalAddr().(*net.UDPAddr).Port)

	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{Version: wire.VersionMin, UDPPort: port})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	mt, payload, err := wire.ReadMessage(conn)
	if err != nil || mt != wire.MsgHelloAck {
		t.Fatalf("legacy hello answered with %v, %v", mt, err)
	}
	// The ack payload names the chosen version — the legacy hello's
	// exact version, not the sender's newer one.
	ack, err := wire.UnmarshalHelloAck(payload, wire.VersionMin)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != wire.VersionMin {
		t.Fatalf("sender chose version %d for a version-%d receiver", ack.Version, wire.VersionMin)
	}

	// A legacy receiver still measures: stream request → probes → done.
	const k = 10
	req := wire.StreamRequest{Gen: 1, K: k, L: 150, PeriodNs: 300_000}
	if err := wire.WriteMessage(conn, wire.MsgStreamRequest, wire.MarshalStreamRequest(req)); err != nil {
		t.Fatal(err)
	}
	udp.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 2048)
	for got := 0; got < k; {
		n, err := udp.Read(buf)
		if err != nil {
			t.Fatalf("after %d probes: %v", got, err)
		}
		if _, err := wire.UnmarshalProbe(buf[:n]); err == nil {
			got++
		}
	}
	mt, payload, err = wire.ReadMessage(conn)
	if err != nil || mt != wire.MsgStreamDone {
		t.Fatalf("stream answered with %v, %v", mt, err)
	}
	done, err := wire.UnmarshalStreamDone(payload)
	if err != nil || done.Sent != k {
		t.Fatalf("stream-done %+v, %v; want %d sent", done, err, k)
	}
}

// startLegacySender runs a minimal pre-range (version ≤ 2) sender: a
// 6-byte hello is unparseable to it, so it drops that session; a
// 4-byte version-2 hello gets the old empty ack, and stream requests
// are served. Each connection is one session, so the prober's
// fallback redial reaches a fresh accept.
func startLegacySender(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				mt, payload, err := wire.ReadMessage(conn)
				if err != nil || mt != wire.MsgHello {
					return
				}
				hello, err := wire.UnmarshalHello(payload) // strict 4-byte, as in version 2
				if err != nil || hello.Version != wire.VersionMin {
					return // range hello: incomprehensible, hang up
				}
				host, _, _ := net.SplitHostPort(conn.RemoteAddr().String())
				udp, err := net.DialUDP("udp", nil, &net.UDPAddr{
					IP:   net.ParseIP(host),
					Port: int(hello.UDPPort),
				})
				if err != nil {
					return
				}
				defer udp.Close()
				if err := wire.WriteMessage(conn, wire.MsgHelloAck, nil); err != nil {
					return
				}
				for {
					mt, payload, err := wire.ReadMessage(conn)
					if err != nil || mt != wire.MsgStreamRequest {
						return
					}
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
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestNewReceiverFallsBackToLegacySender: against a pre-range sender
// the range hello dies, the prober must redial with the legacy exact
// form, settle on the old version, and measure — mixed fleets where
// the receiver upgrades first keep working too.
func TestNewReceiverFallsBackToLegacySender(t *testing.T) {
	addr := startLegacySender(t)
	p, err := Dial(addr, ProberConfig{ControlTimeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("Dial against a legacy sender: %v", err)
	}
	defer p.Close()
	if got := p.NegotiatedVersion(); got != wire.VersionMin {
		t.Fatalf("negotiated version %d against a legacy sender, want %d", got, wire.VersionMin)
	}
	res, err := p.SendStream(pathload.StreamSpec{K: 10, L: 150, T: 300 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 10 {
		t.Fatalf("sent %d of 10 over the fallback session", res.Sent)
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
// mis-served.
func TestSenderRejectsDisjointVersionRange(t *testing.T) {
	addr := startSender(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := wire.HelloRange{Min: wire.Version + 1, Max: wire.Version + 9, UDPPort: 1}
	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHelloRange(hello)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := wire.ReadMessage(conn); err == nil {
		t.Fatal("sender acknowledged a version range it cannot speak")
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
		hello, err := wire.ParseHello(payload)
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
