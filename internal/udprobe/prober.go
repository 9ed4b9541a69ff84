package udprobe

import (
	"fmt"
	"math"
	"net"
	"time"

	"repro/internal/wire"

	pathload "repro"
)

// ProberConfig tunes the receiver side.
type ProberConfig struct {
	// CollectSlack is added to the nominal stream duration plus RTT
	// when waiting for probe packets (default 200 ms).
	CollectSlack time.Duration
	// ControlTimeout bounds control-channel exchanges (default 10 s).
	ControlTimeout time.Duration
	// KeepAlive is the longest Idle sleeps without pinging the sender
	// (default 45 s, under the sender's default 2-minute session idle
	// timeout). Without the pings, a re-measurement gap longer than the
	// sender's timeout would get every healthy session reaped mid-gap.
	KeepAlive time.Duration
	// RTTRefresh bounds how stale the control-RTT estimate may get
	// (default 30 s). The RTT is measured at Dial, but pathload uses it
	// for the rest of the session — inter-stream gap floors and
	// collection deadlines — and control latency drifts as routes and
	// load change. A stream request finding the estimate older than
	// this re-measures it with a timed ping first; keepalive pings
	// refresh it as a side effect.
	RTTRefresh time.Duration
}

func (c ProberConfig) withDefaults() ProberConfig {
	if c.CollectSlack == 0 {
		c.CollectSlack = 200 * time.Millisecond
	}
	if c.ControlTimeout == 0 {
		c.ControlTimeout = 10 * time.Second
	}
	if c.KeepAlive == 0 {
		c.KeepAlive = 45 * time.Second
	}
	if c.RTTRefresh == 0 {
		c.RTTRefresh = 30 * time.Second
	}
	return c
}

// rxDatagramOverhead is what a queued datagram of L bytes costs the
// receive buffer beyond 2·L; a stream of K asks for K·(2·L + this).
// Linux charges a datagram its buffer's true size: payload and headers
// rounded up to a power of two, plus the buffer's bookkeeping. Measured
// on loopback (Linux 6.18), that is 832 B up to 197 B of payload,
// 1 280 B up to 645 B, 2 304 B up to 1 669 B, and never more than
// 2·L + 1 012 B up to 65 507 B. The default 212 992 B buffer holds 92
// datagrams of 800–1 500 B, short of one pathload stream.
const rxDatagramOverhead = 1024

// RxInfo describes a prober's data-socket receive path.
type RxInfo struct {
	// KernelStamps says the latest arrival carried the kernel's
	// SO_TIMESTAMPNS stamp, taken when the datagram reached the socket;
	// false means time.Now() once the read returned, which includes
	// however long the reading goroutine waited to be scheduled. Before
	// the first arrival it says what the socket was set up for.
	KernelStamps bool
	// ReadBuffer is the receive buffer the kernel granted, in bytes.
	ReadBuffer int
}

// A Prober measures the path from a remote sender daemon to this host.
// It implements pathload.Prober: each SendStream asks the sender to
// emit one periodic UDP stream and stamps each arrival with the time
// it reached the data socket — the kernel's receive stamp on Linux,
// time.Now() after the read elsewhere. The socket's receive buffer is
// grown to hold one whole stream, so a reader that stalls reads the
// tail late rather than losing it. One-way delays are relative —
// sender and receiver clocks are never synchronized; SLoPS only
// consumes OWD differences.
type Prober struct {
	cfg     ProberConfig
	ctrl    net.Conn
	udp     *net.UDPConn
	rtt     time.Duration
	rttAt   time.Time // when rtt was last measured
	version uint16
	buf     []byte
	oob     []byte // one read's control messages: the kernel's stamp
	rx      RxInfo
	rxAsked int // the largest receive buffer asked for so far
	// gen numbers this session's stream requests. The sender echoes it
	// in every probe packet and in the StreamDone, so after an errored
	// round the receiver can discard the abandoned request's late
	// answer (and its late data packets) instead of mistaking them for
	// the current round's.
	gen uint32
	col pathload.StreamCollector
}

// Dial connects to a sender daemon's control address and performs the
// hello handshake, negotiating the protocol version: it opens with the
// version-3 range hello, and if the sender is too old to parse it
// (pre-range senders drop the session on the 6-byte payload), it
// redials once and falls back to the legacy exact-version form. The
// returned prober must be closed after use.
func Dial(senderAddr string, cfg ProberConfig) (*Prober, error) {
	p, err := listenData()
	if err != nil {
		return nil, err
	}
	p.cfg = cfg.withDefaults()
	port := uint16(p.udp.LocalAddr().(*net.UDPAddr).Port)

	rangeErr := p.handshake(senderAddr, wire.MarshalHelloRange(wire.HelloRange{
		Min: wire.VersionMin, Max: wire.Version, UDPPort: port,
	}), wire.VersionMin)
	if rangeErr == nil {
		return p, nil
	}
	// A legacy sender read 6 bytes where it expected 4 and hung up; a
	// modern sender that refuses [VersionMin, Version] outright would
	// refuse the narrower legacy form too, so one fallback attempt is
	// sound either way.
	legacyErr := p.handshake(senderAddr, wire.MarshalHello(wire.Hello{
		Version: wire.VersionMin, UDPPort: port,
	}), wire.VersionMin)
	if legacyErr != nil {
		p.udp.Close()
		return nil, fmt.Errorf("udprobe: hello handshake failed at both forms: range: %v; legacy: %w", rangeErr, legacyErr)
	}
	return p, nil
}

// listenData opens a prober's data socket on an ephemeral port, with
// kernel receive stamps where the platform has them.
func listenData() (*Prober, error) {
	udp, err := net.ListenUDP("udp", &net.UDPAddr{})
	if err != nil {
		return nil, fmt.Errorf("udprobe: data listen: %w", err)
	}
	p := &Prober{udp: udp, buf: make([]byte, 64<<10), oob: make([]byte, rxOOBSize)}
	p.rx.ReadBuffer = grantedReadBuffer(udp, 0)
	p.rx.KernelStamps = enableKernelStamps(udp)
	return p, nil
}

// handshake runs one control connection attempt with the given hello
// payload. ackFallback is the session version implied by a legacy
// empty-payload ack — the exact version the hello proposed. On error
// the control connection is closed; the data socket stays open.
func (p *Prober) handshake(senderAddr string, hello []byte, ackFallback uint16) error {
	ctrl, err := net.DialTimeout("tcp", senderAddr, p.cfg.ControlTimeout)
	if err != nil {
		return fmt.Errorf("udprobe: control dial: %w", err)
	}
	p.ctrl = ctrl
	fail := func(err error) error {
		ctrl.Close()
		p.ctrl = nil
		return err
	}

	t0 := time.Now()
	if err := p.writeCtrl(wire.MsgHello, hello); err != nil {
		return fail(err)
	}
	mt, payload, err := p.readCtrl()
	if err != nil {
		return fail(fmt.Errorf("udprobe: hello handshake: %w", err))
	}
	if mt != wire.MsgHelloAck {
		return fail(fmt.Errorf("udprobe: expected hello-ack, got %v", mt))
	}
	p.rtt = time.Since(t0)
	p.rttAt = time.Now()
	ack, err := wire.UnmarshalHelloAck(payload, ackFallback)
	if err != nil {
		return fail(err)
	}
	if ack.Version < wire.VersionMin || ack.Version > wire.Version {
		return fail(fmt.Errorf("udprobe: sender chose protocol version %d outside [%d, %d]", ack.Version, wire.VersionMin, wire.Version))
	}
	p.version = ack.Version
	return nil
}

// NegotiatedVersion reports the protocol version the hello handshake
// settled on.
func (p *Prober) NegotiatedVersion() uint16 { return p.version }

// Rx reports whether arrivals carry the kernel's stamp and the receive
// buffer the kernel granted the data socket.
func (p *Prober) Rx() RxInfo { return p.rx }

// Close says goodbye to the sender and releases sockets.
func (p *Prober) Close() error {
	if p.ctrl != nil {
		// Best-effort farewell; the session also dies with the socket.
		p.ctrl.SetWriteDeadline(time.Now().Add(time.Second))
		_ = wire.WriteMessage(p.ctrl, wire.MsgBye, nil)
		p.ctrl.Close()
	}
	if p.udp != nil {
		p.udp.Close()
	}
	return nil
}

// RTT reports the control-channel round-trip time, pathload's floor
// for inter-stream gaps: measured at the handshake and re-measured by
// ping exchanges — keepalives, and the pre-stream refresh whenever the
// estimate is older than RTTRefresh — so a mid-session latency shift
// shows up here instead of silently mis-sizing gaps and deadlines.
func (p *Prober) RTT() time.Duration { return p.rtt }

// Idle sleeps; on a real network, waiting is waiting — but a session
// must not look dead while it waits. Sleeps longer than KeepAlive are
// chunked, with a control-channel ping between chunks so the sender's
// session idle deadline keeps being refreshed. A failed exchange is
// reported: the session is gone and the caller (a reconnecting monitor
// session) should heal rather than sleep on.
func (p *Prober) Idle(d time.Duration) error {
	for d > p.cfg.KeepAlive {
		time.Sleep(p.cfg.KeepAlive)
		d -= p.cfg.KeepAlive
		if err := p.ping(); err != nil {
			return err
		}
	}
	time.Sleep(d)
	return nil
}

// ping runs one keepalive exchange on the control channel and, when
// the exchange was clean, refreshes the control-RTT estimate from its
// timing. Like awaitStreamDone it resynchronizes rather than chokes: a
// StreamDone arriving here is necessarily the late answer to a round
// the receiver already gave up on (no request is outstanding during
// Idle), so it is drained, not fatal — but a drained frame means the
// measured time covers more than one round trip, so it does not update
// the estimate.
func (p *Prober) ping() error {
	t0 := time.Now()
	if err := p.writeCtrl(wire.MsgPing, nil); err != nil {
		return err
	}
	clean := true
	for {
		mt, _, err := p.readCtrl()
		if err != nil {
			return fmt.Errorf("udprobe: awaiting pong: %w", err)
		}
		switch mt {
		case wire.MsgPong:
			if clean {
				p.rtt = time.Since(t0)
				p.rttAt = time.Now()
			}
			return nil
		case wire.MsgStreamDone:
			// Stale answer to an abandoned round; keep draining.
			clean = false
		default:
			return fmt.Errorf("udprobe: expected pong, got %v", mt)
		}
	}
}

// SendStream asks the sender for one stream and collects its packets.
func (p *Prober) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	var res pathload.StreamResult
	if spec.Fleet < 0 {
		// Wire fleet indices are unsigned; the init-probe's -1 maps to
		// the top of the range.
		spec.Fleet = 1<<31 - 1
	}
	p.gen++
	req := wire.StreamRequest{
		Gen:      p.gen,
		Fleet:    uint32(spec.Fleet),
		Stream:   uint32(spec.Index),
		K:        uint32(spec.K),
		L:        uint32(spec.L),
		PeriodNs: uint64(spec.T.Nanoseconds()),
	}

	// A stale RTT estimate mis-sizes the collection deadline below and
	// the caller's inter-stream gaps; re-measure it first.
	if time.Since(p.rttAt) > p.cfg.RTTRefresh {
		if err := p.ping(); err != nil {
			return res, err
		}
	}
	if err := p.drainData(); err != nil {
		return res, err
	}
	p.growReadBuffer(spec.K, spec.L)
	if err := p.writeCtrl(wire.MsgStreamRequest, wire.MarshalStreamRequest(req)); err != nil {
		return res, err
	}

	// The collector rejects duplicates and sequence numbers ≥ K: either
	// would end collection with real packets still in flight.
	p.col.Open(spec.K)
	// A fresh slice, since callers may keep a result past the next stream.
	owds := make([]pathload.OWDSample, 0, spec.K)
	deadline := time.Now().Add(spec.Duration() + p.rtt + p.cfg.CollectSlack)
	for p.col.Len() < spec.K {
		if err := p.udp.SetReadDeadline(deadline); err != nil {
			return res, fmt.Errorf("udprobe: data deadline: %w", err)
		}
		n, recv, err := p.readProbe()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				break // the rest are lost
			}
			return res, fmt.Errorf("udprobe: data read: %w", err)
		}
		hdr, err := wire.UnmarshalProbe(p.buf[:n])
		if err != nil {
			continue // stray datagram on our port
		}
		if hdr.Gen != req.Gen || hdr.Fleet != req.Fleet || hdr.Stream != req.Stream {
			continue // straggler from an earlier stream or abandoned round
		}
		p.col.Put(uint64(hdr.Seq), time.Duration(recv-hdr.SentNs))
	}

	// The sender's verdict: how many packets went out, and whether the
	// pacing was disturbed. Answers are strictly ordered on the control
	// channel, but a round the receiver timed out on leaves its
	// StreamDone in flight — drain those stale answers (their Gen is
	// older than this request's) until ours arrives, resynchronizing
	// the session instead of failing every round after an error.
	done, err := p.awaitStreamDone(req.Gen)
	if err != nil {
		return res, err
	}

	res.Sent = int(done.Sent)
	res.Flagged = done.Flagged != 0
	res.OWDs = p.col.Drain(owds, 0)
	return res, nil
}

// awaitStreamDone reads control messages until the StreamDone answering
// generation gen arrives, discarding StreamDones of earlier generations
// (answers to requests this session already gave up on). Anything else
// on the channel is a protocol error.
func (p *Prober) awaitStreamDone(gen uint32) (wire.StreamDone, error) {
	for {
		mt, payload, err := p.readCtrl()
		if err != nil {
			return wire.StreamDone{}, fmt.Errorf("udprobe: awaiting stream-done: %w", err)
		}
		if mt == wire.MsgPong {
			continue // a timed-out keepalive's answer arriving late
		}
		if mt != wire.MsgStreamDone {
			return wire.StreamDone{}, fmt.Errorf("udprobe: expected stream-done, got %v", mt)
		}
		done, err := wire.UnmarshalStreamDone(payload)
		if err != nil {
			return wire.StreamDone{}, err
		}
		if done.Gen == gen {
			return done, nil
		}
		if done.Gen > gen {
			return wire.StreamDone{}, fmt.Errorf("udprobe: stream-done for future generation %d (at %d)", done.Gen, gen)
		}
		// Stale answer to an abandoned round; keep draining.
	}
}

// growReadBuffer grows the data socket's receive buffer to hold k
// datagrams of l bytes, so the whole stream can queue while the reader
// is not scheduled. It never shrinks the buffer, and asks at most once
// per size: a grant clamped by rmem_max is not an error, and a refused
// request leaves the buffer as it was.
func (p *Prober) growReadBuffer(k, l int) {
	need := min(k*(2*l+rxDatagramOverhead), math.MaxInt32)
	if need <= p.rx.ReadBuffer || need <= p.rxAsked {
		return
	}
	p.rxAsked = need
	if p.udp.SetReadBuffer(need) == nil {
		p.rx.ReadBuffer = grantedReadBuffer(p.udp, need)
	}
}

// readProbe reads one datagram into p.buf and returns its length and
// arrival time in Unix nanoseconds.
func (p *Prober) readProbe() (int, int64, error) {
	n, oobn, _, _, err := p.udp.ReadMsgUDPAddrPort(p.buf, p.oob)
	if err != nil {
		return 0, 0, err
	}
	return n, p.stamp(p.oob[:oobn]), nil
}

// stamp returns the arrival time carried in a read's control messages,
// or time.Now() when they carry none, and records which it was.
func (p *Prober) stamp(oob []byte) int64 {
	ns, ok := rxStamp(oob)
	p.rx.KernelStamps = ok
	if !ok {
		ns = time.Now().UnixNano()
	}
	return ns
}

// drainData discards stale datagrams buffered on the data socket.
func (p *Prober) drainData() error {
	for {
		if err := p.udp.SetReadDeadline(time.Now()); err != nil {
			return fmt.Errorf("udprobe: drain deadline: %w", err)
		}
		if _, err := p.udp.Read(p.buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil
			}
			return fmt.Errorf("udprobe: drain read: %w", err)
		}
	}
}

func (p *Prober) writeCtrl(t wire.MsgType, payload []byte) error {
	if err := p.ctrl.SetWriteDeadline(time.Now().Add(p.cfg.ControlTimeout)); err != nil {
		return fmt.Errorf("udprobe: control deadline: %w", err)
	}
	return wire.WriteMessage(p.ctrl, t, payload)
}

func (p *Prober) readCtrl() (wire.MsgType, []byte, error) {
	if err := p.ctrl.SetReadDeadline(time.Now().Add(p.cfg.ControlTimeout)); err != nil {
		return 0, nil, fmt.Errorf("udprobe: control deadline: %w", err)
	}
	return wire.ReadMessage(p.ctrl)
}
