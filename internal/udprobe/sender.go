// Package udprobe implements pathload on real networks: a sender
// daemon that emits periodic UDP probe streams on request, and a
// receiver-side Prober that drives the measurement over a TCP control
// channel and stamps each arrival with the time it reached the socket.
//
// Timing on a garbage-collected runtime is the hard part (the reason
// the paper-figure evaluation runs on the simulator instead): a GC
// pause or scheduler preemption in the middle of a stream stretches an
// interspacing and fakes a delay trend. The sender defends itself the
// way the original tool does — it timestamps every packet at emission,
// paces with a hybrid sleep/spin loop pinned to an OS thread, and
// flags streams whose actual interspacings deviated, so the analysis
// discards them instead of misreading them. The receiver keeps a stall
// of its own out of the delays: on Linux the kernel stamps each
// datagram on arrival (SO_TIMESTAMPNS), and the receive buffer is grown
// to hold a whole stream, so a late read neither moves a stamp nor
// loses the stream's tail.
package udprobe

import (
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/wire"
)

// The sender's fixed pacing and bounds.
const (
	// maxStreamK and maxStreamL bound per-stream resource use against
	// malformed or hostile requests: 10000 packets, and the largest
	// IPv4 UDP payload (65535 less the 20-byte IP and 8-byte UDP
	// headers), above which the first write of the stream would fail.
	maxStreamK = 10_000
	maxStreamL = 65_507
	// spinThreshold is the remaining wait below which the pacer spins
	// instead of sleeping.
	spinThreshold = 500 * time.Microsecond
	// gapFactor flags a stream when any actual interspacing exceeds
	// gapFactor·T + spinThreshold.
	gapFactor = 3
	// emitConcurrency is how many probe streams may pace onto the wire
	// at once: one, so stream emissions are serialized. Concurrent
	// streams share the NIC, so their pacing loops skew each other's
	// interspacings — two overlapping sessions each measuring a clean
	// path would flag or, worse, subtly bias each other's streams.
	// Sessions wait their turn at the admission gate; the control
	// channel's stream-done reply is late, but the packets that do go
	// out are paced truthfully.
	emitConcurrency = 1
)

// SenderConfig tunes the sender daemon.
type SenderConfig struct {
	// SessionTimeout bounds how long a control session may sit idle
	// between messages before the daemon drops it (default 2 minutes).
	// A vanished receiver — half-open TCP, no MsgBye — would otherwise
	// hold its session goroutine and data socket forever.
	SessionTimeout time.Duration
	// MaxSessions caps concurrent control sessions (default 64);
	// connections beyond the cap are refused at accept.
	MaxSessions int
	// Logf, if set, receives diagnostics.
	Logf func(format string, args ...any)
}

func (c SenderConfig) withDefaults() SenderConfig {
	if c.SessionTimeout == 0 {
		c.SessionTimeout = 2 * time.Minute
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// A Sender is the pathload sender daemon: it accepts control sessions
// and emits probe streams toward each session's receiver.
type Sender struct {
	cfg SenderConfig
	ln  net.Listener

	// emitSem is the emission admission gate: a session must hold a
	// slot while its pacing loop runs, so at most emitConcurrency
	// streams contend for the NIC at once.
	emitSem chan struct{}
	quit    chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewSender listens for control connections on addr (e.g. ":8365").
func NewSender(addr string, cfg SenderConfig) (*Sender, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("udprobe: control listen: %w", err)
	}
	cfg = cfg.withDefaults()
	return &Sender{
		cfg:     cfg,
		ln:      ln,
		emitSem: make(chan struct{}, emitConcurrency),
		quit:    make(chan struct{}),
		conns:   map[net.Conn]struct{}{},
	}, nil
}

// Addr returns the control listener's address.
func (s *Sender) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting control sessions and terminates the live ones:
// their connections are closed, so in-flight session loops unwind at
// their next control read. It is idempotent.
func (s *Sender) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

// track registers a session connection; it reports false when the
// sender is closed or at its session cap, in which case the caller must
// drop the connection.
func (s *Sender) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.conns) >= s.cfg.MaxSessions {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Sender) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Serve accepts and serves control sessions until the listener closes.
// Sessions run concurrently, one goroutine and one UDP data socket
// each, so a single daemon can serve a whole monitored fleet of
// receivers. Stream emissions, though, pass through the sender's
// admission gate (EmitConcurrency, default 1): concurrent pacing loops
// share the host's NIC and would skew each other's interspacings, so
// overlapping requests take turns on the wire. The per-packet
// timestamps and the Flagged verdict still expose any stream the
// remaining contention disturbed, and fleet-side admission policies
// (pathload.MonitorConfig.Admission) decide how much simultaneous
// probing to request in the first place.
func (s *Sender) Serve() error {
	defer s.wg.Wait()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("udprobe: accept: %w", err)
		}
		if !s.track(conn) {
			s.cfg.Logf("udprobe: refusing session from %v (closed or at the %d-session cap)", conn.RemoteAddr(), s.cfg.MaxSessions)
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			if err := s.serveSession(conn); err != nil {
				s.cfg.Logf("udprobe: session from %v: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// readSession reads one control message under the session idle
// deadline.
func (s *Sender) readSession(conn net.Conn) (wire.MsgType, []byte, error) {
	if err := conn.SetReadDeadline(time.Now().Add(s.cfg.SessionTimeout)); err != nil {
		return 0, nil, fmt.Errorf("session deadline: %w", err)
	}
	return wire.ReadMessage(conn)
}

// serveSession handles one control session.
func (s *Sender) serveSession(conn net.Conn) error {
	defer conn.Close()

	t, payload, err := s.readSession(conn)
	if err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	if t != wire.MsgHello {
		return fmt.Errorf("expected hello, got %v", t)
	}
	// Either hello form: the version-3 range hello or the legacy
	// 4-byte exact-version hello (a degenerate range).
	hello, err := wire.ParseHello(payload)
	if err != nil {
		return err
	}
	version, err := wire.Negotiate(hello.Min, hello.Max)
	if err != nil {
		return err
	}

	host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
	if err != nil {
		return fmt.Errorf("parsing peer address: %w", err)
	}
	dst, err := net.ResolveUDPAddr("udp", net.JoinHostPort(host, fmt.Sprint(hello.UDPPort)))
	if err != nil {
		return fmt.Errorf("resolving receiver data address: %w", err)
	}
	udp, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		return fmt.Errorf("opening data socket: %w", err)
	}
	defer udp.Close()

	// The ack names the chosen version. Legacy receivers discard the
	// ack payload, so they interoperate without noticing it.
	if err := wire.WriteMessage(conn, wire.MsgHelloAck, wire.MarshalHelloAck(wire.HelloAck{Version: version})); err != nil {
		return err
	}

	for {
		t, payload, err := s.readSession(conn)
		if err != nil {
			return fmt.Errorf("reading control message: %w", err)
		}
		switch t {
		case wire.MsgStreamRequest:
			req, err := wire.UnmarshalStreamRequest(payload)
			if err != nil {
				return err
			}
			done, err := s.emitStream(udp, req)
			if err != nil {
				return fmt.Errorf("emitting stream %d/%d: %w", req.Fleet, req.Stream, err)
			}
			if err := wire.WriteMessage(conn, wire.MsgStreamDone, wire.MarshalStreamDone(done)); err != nil {
				return err
			}
		case wire.MsgPing:
			// Keepalive across a long re-measurement gap; reading it
			// already refreshed the session idle deadline.
			if err := wire.WriteMessage(conn, wire.MsgPong, nil); err != nil {
				return err
			}
		case wire.MsgBye:
			return nil
		default:
			return fmt.Errorf("unexpected control message %v", t)
		}
	}
}

// emitStream paces one periodic stream onto the data socket.
func (s *Sender) emitStream(udp *net.UDPConn, req wire.StreamRequest) (wire.StreamDone, error) {
	done := wire.StreamDone{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream}
	if req.K > maxStreamK || req.L > maxStreamL || req.K == 0 || int(req.L) < wire.ProbeHeaderSize {
		return done, fmt.Errorf("stream request out of bounds: K=%d L=%d", req.K, req.L)
	}
	period := time.Duration(req.PeriodNs)
	if period <= 0 {
		return done, fmt.Errorf("non-positive period %v", period)
	}

	// Admission gate: wait for an emission slot so overlapping sessions
	// cannot skew each other's pacing.
	select {
	case s.emitSem <- struct{}{}:
		defer func() { <-s.emitSem }()
	case <-s.quit:
		return done, errors.New("sender closed while awaiting an emission slot")
	}

	// Pin the pacing loop to an OS thread: a migration mid-stream is a
	// guaranteed timing glitch.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	// One zero-padded packet buffer for the whole stream, re-stamped per
	// packet: nothing is allocated between reading the clock and the
	// write. L was checked against the header size above.
	buf := make([]byte, req.L)
	hdr := wire.ProbeHeader{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream}

	flagLimit := time.Duration(gapFactor*float64(period)) + spinThreshold
	start := time.Now()
	prev := start
	flagged := false

	for i := uint32(0); i < req.K; i++ {
		target := start.Add(time.Duration(i) * period)
		sleepUntil(target)

		now := time.Now()
		hdr.Seq, hdr.SentNs = i, now.UnixNano()
		wire.PutProbe(buf, hdr)
		if _, err := udp.Write(buf); err != nil {
			// A send failure mid-stream invalidates the stream but not
			// the session; report what was sent.
			s.cfg.Logf("udprobe: data send: %v", err)
			flagged = true
			break
		}
		if i > 0 && now.Sub(prev) > flagLimit {
			flagged = true
		}
		prev = now
		done.Sent++
	}
	if flagged {
		done.Flagged = 1
	}
	return done, nil
}

// sleepUntil sleeps coarsely and then spins for the final approach, the
// standard defense against timer granularity and scheduler wake-up
// latency.
func sleepUntil(target time.Time) {
	for {
		rem := time.Until(target)
		if rem <= 0 {
			return
		}
		if rem > spinThreshold {
			time.Sleep(rem - spinThreshold)
			continue
		}
		// Busy-wait the last stretch.
		for time.Now().Before(target) {
		}
		return
	}
}

// ListenAndServe runs a sender daemon until its listener fails.
func ListenAndServe(addr string, cfg SenderConfig) error {
	s, err := NewSender(addr, cfg)
	if err != nil {
		return err
	}
	log.Printf("pathload sender: control on %v", s.Addr())
	return s.Serve()
}
