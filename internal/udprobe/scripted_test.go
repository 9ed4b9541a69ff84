package udprobe

import (
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"

	pathload "repro"
)

// scriptedSender is a hand-driven sender daemon for robustness tests:
// it speaks the control protocol on one session and lets the test
// script exactly which datagrams each stream request produces.
type scriptedSender struct {
	t  *testing.T
	ln net.Listener
	// handle receives each StreamRequest with the session's UDP data
	// socket and returns the StreamDone to answer with.
	handle func(req wire.StreamRequest, udp *net.UDPConn) wire.StreamDone

	mu   sync.Mutex
	conn net.Conn
	done chan struct{}
}

func startScripted(t *testing.T, handle func(wire.StreamRequest, *net.UDPConn) wire.StreamDone) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedSender{t: t, ln: ln, handle: handle, done: make(chan struct{})}
	// Cleanup tears the session down and waits for serve — which calls
	// t.Error/t.Logf — to return before the test completes.
	t.Cleanup(func() {
		ln.Close()
		s.mu.Lock()
		if s.conn != nil {
			s.conn.Close()
		}
		s.mu.Unlock()
		<-s.done
	})
	go s.serve()
	return ln.Addr().String()
}

func (s *scriptedSender) serve() {
	defer close(s.done)
	conn, err := s.ln.Accept()
	if err != nil {
		return
	}
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
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
	dst, err := net.ResolveUDPAddr("udp", net.JoinHostPort(host, strconv.Itoa(int(hello.UDPPort))))
	if err != nil {
		return
	}
	udp, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		return
	}
	defer udp.Close()
	if err := wire.WriteMessage(conn, wire.MsgHelloAck, wire.MarshalHelloAck(wire.HelloAck{Version: version})); err != nil {
		return
	}

	for {
		mt, payload, err := wire.ReadMessage(conn)
		if err != nil || mt == wire.MsgBye {
			return
		}
		if mt != wire.MsgStreamRequest {
			return
		}
		req, err := wire.UnmarshalStreamRequest(payload)
		if err != nil {
			return
		}
		done := s.handle(req, udp)
		if err := wire.WriteMessage(conn, wire.MsgStreamDone, wire.MarshalStreamDone(done)); err != nil {
			return
		}
	}
}

// sendProbe emits one probe datagram for the request.
func sendProbe(t *testing.T, udp *net.UDPConn, h wire.ProbeHeader, size int) {
	t.Helper()
	buf, err := wire.MarshalProbe(h, size)
	if err != nil {
		t.Error(err)
		return
	}
	if _, err := udp.Write(buf); err != nil {
		t.Logf("scripted send: %v", err)
	}
}

// TestProberDedupsAndFiltersDatagrams: every real packet arrives twice,
// interleaved with stray garbage, a wrong-stream straggler, a
// stale-generation packet and an out-of-range sequence number. Collection must still gather all K real
// packets: duplicates must not count toward the K exit condition (K
// duplicates would otherwise end collection with real packets still in
// flight), and the noise must be filtered, not collected.
func TestProberDedupsAndFiltersDatagrams(t *testing.T) {
	const K = 20
	addr := startScripted(t, func(req wire.StreamRequest, udp *net.UDPConn) wire.StreamDone {
		for i := uint32(0); i < req.K; i++ {
			h := wire.ProbeHeader{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream, Seq: i, SentNs: time.Now().UnixNano()}
			sendProbe(t, udp, h, int(req.L))
			sendProbe(t, udp, h, int(req.L)) // duplicated datagram
			if i == 2 {
				udp.Write([]byte("not a probe packet")) // stray
			}
			if i == 4 {
				// Straggler from another stream of the same fleet.
				sendProbe(t, udp, wire.ProbeHeader{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream + 7, Seq: i, SentNs: time.Now().UnixNano()}, int(req.L))
			}
			if i == 6 {
				// Late packet from an abandoned earlier round.
				sendProbe(t, udp, wire.ProbeHeader{Gen: req.Gen - 1, Fleet: req.Fleet, Stream: req.Stream, Seq: i, SentNs: time.Now().UnixNano()}, int(req.L))
			}
			if i == 8 {
				// This stream's tags on a sequence number past K.
				sendProbe(t, udp, wire.ProbeHeader{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream, Seq: req.K + 1000, SentNs: time.Now().UnixNano()}, int(req.L))
			}
			time.Sleep(time.Duration(req.PeriodNs))
		}
		return wire.StreamDone{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream, Sent: req.K}
	})

	p, err := Dial(addr, ProberConfig{CollectSlack: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	res, err := p.SendStream(pathload.StreamSpec{K: K, L: 150, T: 500 * time.Microsecond, Fleet: 2, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != K {
		t.Errorf("Sent = %d, want %d", res.Sent, K)
	}
	if len(res.OWDs) != K {
		t.Fatalf("collected %d OWD samples, want %d: duplicates ended collection early or noise leaked in", len(res.OWDs), K)
	}
	for i, s := range res.OWDs {
		if s.Seq != i {
			t.Fatalf("OWDs[%d].Seq = %d, want %d (distinct, ordered)", i, s.Seq, i)
		}
	}
}

// TestProberKeepsNegativeOWDsAndFreshResults: a sender whose clock runs
// a second ahead of the receiver's makes every OWD negative, and every
// packet must still be collected — occupancy cannot come from the
// delay's sign. Each stream's OWDs must also be a fresh slice: a caller
// may keep one result past the next SendStream.
func TestProberKeepsNegativeOWDsAndFreshResults(t *testing.T) {
	addr := startScripted(t, func(req wire.StreamRequest, udp *net.UDPConn) wire.StreamDone {
		for i := uint32(0); i < req.K; i++ {
			sendProbe(t, udp, wire.ProbeHeader{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream, Seq: i, SentNs: time.Now().Add(time.Second).UnixNano()}, int(req.L))
			time.Sleep(time.Duration(req.PeriodNs))
		}
		return wire.StreamDone{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream, Sent: req.K}
	})
	p, err := Dial(addr, ProberConfig{CollectSlack: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	spec := pathload.StreamSpec{K: 20, L: 150, T: 500 * time.Microsecond}
	var results [2]pathload.StreamResult
	var kept []pathload.OWDSample
	for i := range results {
		spec.Index = i
		if results[i], err = p.SendStream(spec); err != nil {
			t.Fatal(err)
		}
		if got := len(results[i].OWDs); got != spec.K {
			t.Fatalf("stream %d collected %d of %d negative-OWD samples", i, got, spec.K)
		}
		if i == 0 {
			kept = slices.Clone(results[0].OWDs)
		}
	}
	for _, s := range kept {
		if s.OWD >= 0 {
			t.Fatalf("OWD %v of seq %d is not negative; the case tests nothing", s.OWD, s.Seq)
		}
	}
	if !slices.Equal(results[0].OWDs, kept) {
		t.Fatal("the first stream's OWDs changed under the second SendStream")
	}
}

// TestProberResyncsAfterLateStreamDone: a sender whose StreamDone
// arrives after the receiver's control timeout fails that round — and
// must NOT poison the next one. The generation tag lets the next round
// discard the stale answer and use its own.
func TestProberResyncsAfterLateStreamDone(t *testing.T) {
	first := true
	addr := startScripted(t, func(req wire.StreamRequest, udp *net.UDPConn) wire.StreamDone {
		for i := uint32(0); i < req.K; i++ {
			sendProbe(t, udp, wire.ProbeHeader{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream, Seq: i, SentNs: time.Now().UnixNano()}, int(req.L))
		}
		if first {
			first = false
			// Answer the first round only after the prober has given up
			// on it: the done goes out stale.
			time.Sleep(700 * time.Millisecond)
		}
		return wire.StreamDone{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream, Sent: req.K}
	})

	// CollectSlack must outlast the scripted 700 ms stale-done delay:
	// round two's packets are only emitted once the sender wakes up.
	p, err := Dial(addr, ProberConfig{ControlTimeout: 300 * time.Millisecond, CollectSlack: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	spec := pathload.StreamSpec{K: 10, L: 150, T: 200 * time.Microsecond, Fleet: 0, Index: 0}
	if _, err := p.SendStream(spec); err == nil {
		t.Fatal("first round should time out awaiting its stream-done")
	}

	// The second round must resynchronize past the stale done.
	spec.Index = 1
	res, err := p.SendStream(spec)
	if err != nil {
		t.Fatalf("round after a timed-out stream-done failed: %v", err)
	}
	if len(res.OWDs) != spec.K {
		t.Errorf("resynced round collected %d samples, want %d", len(res.OWDs), spec.K)
	}
}

// TestProberKeepAliveSurvivesLongIdle: an Idle longer than the
// sender's session timeout must not get the session reaped — the
// prober's keepalive pings refresh the idle deadline. The control
// prober, idling without keepalives, loses its session.
func TestProberKeepAliveSurvivesLongIdle(t *testing.T) {
	addr, _ := startSenderCfg(t, SenderConfig{Logf: t.Logf, SessionTimeout: 300 * time.Millisecond})
	spec := pathload.StreamSpec{K: 10, L: 150, T: 300 * time.Microsecond}

	alive, err := Dial(addr, ProberConfig{KeepAlive: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer alive.Close()
	if err := alive.Idle(time.Second); err != nil {
		t.Fatalf("keepalive idle: %v", err)
	}
	if _, err := alive.SendStream(spec); err != nil {
		t.Fatalf("stream after a keepalive-bridged gap: %v", err)
	}

	// Control: no pings within the gap → the daemon reaps the session.
	reaped, err := Dial(addr, ProberConfig{KeepAlive: time.Hour, ControlTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer reaped.Close()
	if err := reaped.Idle(time.Second); err != nil {
		t.Fatalf("plain sleep cannot fail locally: %v", err)
	}
	if _, err := reaped.SendStream(spec); err == nil {
		t.Fatal("session idled past the sender timeout without keepalives yet survived — the keepalive test proves nothing")
	}
}

// TestSenderServesConcurrentSessions: one daemon, two receivers at
// once. The second Dial must hand-shake while the first session is
// still open, and streams driven concurrently through both sessions
// must each arrive complete on their own data sockets.
func TestSenderServesConcurrentSessions(t *testing.T) {
	addr := startSender(t)

	p1, err := Dial(addr, ProberConfig{ControlTimeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("Dial p1: %v", err)
	}
	defer p1.Close()
	// With the old one-session-at-a-time daemon this Dial would hang
	// until p1 said goodbye.
	p2, err := Dial(addr, ProberConfig{ControlTimeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("Dial p2 while p1's session is open: %v", err)
	}
	defer p2.Close()

	type outcome struct {
		res pathload.StreamResult
		err error
	}
	run := func(p *Prober, fleet int, out chan<- outcome) {
		var last outcome
		for i := 0; i < 3; i++ {
			spec := pathload.StreamSpec{K: 30, L: 200, T: 300 * time.Microsecond, Fleet: fleet, Index: i}
			last.res, last.err = p.SendStream(spec)
			if last.err != nil {
				break
			}
		}
		out <- last
	}
	c1 := make(chan outcome, 1)
	c2 := make(chan outcome, 1)
	go run(p1, 1, c1)
	go run(p2, 2, c2)
	for name, c := range map[string]chan outcome{"p1": c1, "p2": c2} {
		o := <-c
		if o.err != nil {
			t.Fatalf("%s concurrent stream: %v", name, o.err)
		}
		if got := len(o.res.OWDs); got < 30*9/10 {
			t.Errorf("%s received %d of 30 packets on loopback", name, got)
		}
	}
}

// TestSenderSessionIdleTimeout: a receiver that vanishes without a
// MsgBye (half-open TCP) must not hold its session forever — the
// daemon's idle deadline reaps it, and fresh sessions keep working.
func TestSenderSessionIdleTimeout(t *testing.T) {
	addr, _ := startSenderCfg(t, SenderConfig{Logf: t.Logf, SessionTimeout: 200 * time.Millisecond})

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
	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{Version: wire.Version, UDPPort: port})); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadMessage(conn); err != nil || mt != wire.MsgHelloAck {
		t.Fatalf("handshake: %v %v", mt, err)
	}

	// Go silent. The daemon must drop the session at its idle deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, _, err := wire.ReadMessage(conn); err == nil {
		t.Fatal("idle session received an unexpected message instead of being dropped")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("idle session dropped only after %v, want the 200ms session timeout to reap it", waited)
	}

	// The daemon is not wedged: a well-behaved receiver still measures.
	p, err := Dial(addr, ProberConfig{})
	if err != nil {
		t.Fatalf("Dial after idle-session reap: %v", err)
	}
	defer p.Close()
	if _, err := p.SendStream(pathload.StreamSpec{K: 10, L: 150, T: 300 * time.Microsecond}); err != nil {
		t.Fatalf("SendStream after idle-session reap: %v", err)
	}
}

// TestSenderEmissionGateSerializesOverlappingStreams: two sessions
// firing stream requests at the same instant must not pace onto the
// wire simultaneously — concurrent pacing loops skew each other's
// interspacings. The admission gate (emitConcurrency = 1) serializes
// them, so the two streams' sender-timestamp windows are disjoint.
func TestSenderEmissionGateSerializesOverlappingStreams(t *testing.T) {
	addr, _ := startSenderCfg(t, SenderConfig{Logf: t.Logf})

	type window struct {
		lo, hi int64 // SentNs extremes observed on this session's data socket
		sent   int
		err    error
	}
	const k, periodNs = 100, 500_000 // 50 ms emission per stream

	session := func(fleet uint32, release <-chan struct{}, out chan<- window) {
		var w window
		defer func() { out <- w }()
		fail := func(err error) { w.err = err }

		conn, err := net.Dial("tcp", addr)
		if err != nil {
			fail(err)
			return
		}
		defer conn.Close()
		udp, err := net.ListenUDP("udp", &net.UDPAddr{})
		if err != nil {
			fail(err)
			return
		}
		defer udp.Close()
		port := uint16(udp.LocalAddr().(*net.UDPAddr).Port)
		if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{Version: wire.Version, UDPPort: port})); err != nil {
			fail(err)
			return
		}
		if mt, _, err := wire.ReadMessage(conn); err != nil || mt != wire.MsgHelloAck {
			fail(fmt.Errorf("handshake: %v %v", mt, err))
			return
		}

		<-release // line both sessions up on the same instant
		req := wire.StreamRequest{Gen: 1, Fleet: fleet, K: k, L: 200, PeriodNs: periodNs}
		if err := wire.WriteMessage(conn, wire.MsgStreamRequest, wire.MarshalStreamRequest(req)); err != nil {
			fail(err)
			return
		}
		buf := make([]byte, 2048)
		udp.SetReadDeadline(time.Now().Add(5 * time.Second))
		for w.sent < k {
			n, err := udp.Read(buf)
			if err != nil {
				fail(fmt.Errorf("after %d probes: %w", w.sent, err))
				return
			}
			h, err := wire.UnmarshalProbe(buf[:n])
			if err != nil {
				continue
			}
			if w.sent == 0 || h.SentNs < w.lo {
				w.lo = h.SentNs
			}
			if h.SentNs > w.hi {
				w.hi = h.SentNs
			}
			w.sent++
		}
	}

	release := make(chan struct{})
	c1 := make(chan window, 1)
	c2 := make(chan window, 1)
	go session(1, release, c1)
	go session(2, release, c2)
	time.Sleep(100 * time.Millisecond) // both handshakes done
	close(release)

	w1, w2 := <-c1, <-c2
	for name, w := range map[string]window{"s1": w1, "s2": w2} {
		if w.err != nil {
			t.Fatalf("%s: %v", name, w.err)
		}
		if w.sent != k {
			t.Fatalf("%s received %d of %d probes on loopback", name, w.sent, k)
		}
	}
	// Overlapping emission windows mean both pacing loops ran at once —
	// exactly the mutual skew the gate exists to prevent.
	if lo, hi := max(w1.lo, w2.lo), min(w1.hi, w2.hi); lo <= hi {
		t.Fatalf("emission windows overlap by %v: s1=[%d,%d] s2=[%d,%d]",
			time.Duration(hi-lo), w1.lo, w1.hi, w2.lo, w2.hi)
	}
}
