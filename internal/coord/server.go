package coord

import (
	"crypto/hmac"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/tsstore"
)

// ServerConfig configures a coordinator.
type ServerConfig struct {
	// Coord declares the paths, conflicts, and timing (see Config).
	Coord Config

	// Store shapes the federated store each scrape materializes (ring
	// capacity, digest budget). The zero value uses tsstore defaults.
	Store tsstore.Config

	// Now supplies the control-plane clock. nil uses wall time measured
	// from server construction. The harness injects a scripted clock
	// here — with AutoTick off, the whole coordinator then runs on
	// virtual time and its transcript is replayable byte-for-byte.
	Now func() time.Duration

	// AutoTick, when set, runs Tick every Coord.Epoch on a background
	// goroutine. Leave unset to drive Tick manually (tests).
	AutoTick bool

	// OnEvent, when non-nil, receives every transcript line as it is
	// appended (registration, grants, steals, expirations). Called with
	// the server lock held — keep it fast.
	OnEvent func(line string)

	// Secret, when non-empty, requires every agent to prove knowledge
	// of the same shared secret through an HMAC challenge before it may
	// register. Needs protocol v2; v1 dialers are refused with a
	// versioned error frame.
	Secret string

	// RegisterRate and PushRate are per-remote-host token-bucket rates
	// in events/second (0 = unlimited); RateBurst is the bucket depth
	// (0 selects DefaultRateBurst). Rejected dialers get a versioned
	// error frame before the connection closes.
	RegisterRate float64
	PushRate     float64
	RateBurst    float64

	// Persist, when non-nil, receives every lease-state change and
	// every applied push (see Persister). Persist errors are counted
	// (PersistErrs) but never stop the control plane.
	Persist Persister

	// Restore, when non-nil, reinstates recovered state before the
	// server accepts its first connection: leases by conflict-group
	// member set (mismatches dropped with a transcript line), federated
	// contributions by the per-(path, agent) Seq replace rule.
	Restore *RestoreState
}

// Server is the coordinator: it accepts agent control sessions on a
// listener, feeds their heartbeats and pushes into the lease State and
// the tsstore Federation, and serves the federated scrape surface.
type Server struct {
	cfg   ServerConfig
	start time.Time

	mu          sync.Mutex
	st          *State
	fed         *tsstore.Federation
	persistErrs uint64
	persistErr  error

	regLim  *rateLimiter
	pushLim *rateLimiter

	connMu sync.Mutex
	conns  map[net.Conn]bool
	closed bool

	wg       sync.WaitGroup
	stopTick chan struct{}
}

// NewServer validates cfg and builds the coordinator. Serve (or a
// test's direct state access) does the rest.
func NewServer(cfg ServerConfig) (*Server, error) {
	st, err := NewState(cfg.Coord)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		st:       st,
		fed:      tsstore.NewFederation(cfg.Store),
		conns:    map[net.Conn]bool{},
		stopTick: make(chan struct{}),
	}
	if s.cfg.Now == nil {
		s.cfg.Now = func() time.Duration { return time.Since(s.start) }
	}
	s.regLim = newRateLimiter(cfg.RegisterRate, cfg.RateBurst)
	s.pushLim = newRateLimiter(cfg.PushRate, cfg.RateBurst)
	if cfg.Restore != nil {
		now := s.cfg.Now()
		if cfg.Restore.HaveLeases {
			s.emit(st.RestoreLeases(cfg.Restore.Leases, now))
		}
		for _, rc := range cfg.Restore.Contributions {
			s.fed.Push(rc.Agent, rc.Path, rc.C)
		}
	}
	if cfg.AutoTick {
		s.wg.Add(1)
		go s.tickLoop()
	}
	return s, nil
}

// PersistErrs reports how many Persist calls failed and the most
// recent error.
func (s *Server) PersistErrs() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistErrs, s.persistErr
}

// persistLeases snapshots the lease state into the Persister; callers
// hold s.mu (which also serializes snapshots, so the log's last write
// is always the newest state).
func (s *Server) persistLeases() {
	if s.cfg.Persist == nil {
		return
	}
	if err := s.cfg.Persist.SaveLeases(s.st.LeaseSnapshot(s.cfg.Now())); err != nil {
		s.persistErrs++
		s.persistErr = err
	}
}

// Federation exposes the underlying federated store (tests, embedding).
func (s *Server) Federation() *tsstore.Federation { return s.fed }

// Tick advances the lease machine to the current clock reading and
// returns the transcript lines it produced.
func (s *Server) Tick() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := s.st.Tick(s.cfg.Now())
	s.emit(lines)
	if len(lines) > 0 {
		s.persistLeases()
	}
	return lines
}

// emit forwards transcript lines to OnEvent; callers hold s.mu.
func (s *Server) emit(lines []string) {
	if s.cfg.OnEvent == nil {
		return
	}
	for _, l := range lines {
		s.cfg.OnEvent(l)
	}
}

// tickLoop drives AutoTick.
func (s *Server) tickLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.st.Epoch())
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Tick()
		case <-s.stopTick:
			return
		}
	}
}

// Transcript returns the lease machine's decision log so far.
func (s *Server) Transcript() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Transcript()
}

// Owner reports which agent currently leases the path.
func (s *Server) Owner(path string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Owner(path)
}

// Handler serves the coordinator's HTTP surface: the federated store's
// endpoints (/metrics, /series, /mrtg, /) plus /coord, a plain-text
// control-plane status page (agents, leases, transcript length).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.fed.Handler())
	mux.HandleFunc("/coord", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "clock %v\n", s.cfg.Now())
		for _, a := range s.st.Agents() {
			asg := s.st.Assignment(a)
			fmt.Fprintf(w, "agent %s leases=%d budget=%.0f\n", a, len(asg.Leases), asg.Budget)
		}
		for gi := range s.st.Groups() {
			owner := s.st.owner[gi]
			if owner == "" {
				owner = "-"
			}
			fmt.Fprintf(w, "group %s owner=%s\n", s.st.groupName(gi), owner)
		}
		fmt.Fprintf(w, "transcript %d lines\n", s.st.logged)
	})
	return mux
}

// Serve accepts agent control sessions on ln until Close (or a fatal
// listener error). Each connection is handled on its own goroutine;
// Serve itself blocks, http.Server style.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return errors.New("coord: server closed")
	}
	s.conns[listenerConn{ln}] = true
	s.connMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.connMu.Lock()
			closed := s.closed
			s.connMu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("coord: accept: %w", err)
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = true
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(c)
		}()
	}
}

// listenerConn lets the listener ride in the conns map so Close tears
// it down with one sweep.
type listenerConn struct{ net.Listener }

func (l listenerConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (l listenerConn) Write([]byte) (int, error)        { return 0, io.EOF }
func (l listenerConn) LocalAddr() net.Addr              { return l.Addr() }
func (l listenerConn) RemoteAddr() net.Addr             { return l.Addr() }
func (l listenerConn) SetDeadline(time.Time) error      { return nil }
func (l listenerConn) SetReadDeadline(time.Time) error  { return nil }
func (l listenerConn) SetWriteDeadline(time.Time) error { return nil }

// Close stops the tick loop, closes every control connection and
// listener, and waits for the handlers to drain.
func (s *Server) Close() {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]bool{}
	s.connMu.Unlock()
	close(s.stopTick)
	s.wg.Wait()
}

// dropConn forgets a finished connection.
func (s *Server) dropConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// reject refuses a dialer with a versioned error frame; the caller
// closes the connection.
func (s *Server) reject(c net.Conn, code uint16, text string) {
	writeFrame(c, msgError, marshalError(errorMsg{Version: Version, Code: code, Text: text}))
}

// remoteHost keys rate-limit buckets: the peer address minus the
// port, so reconnecting from ephemeral ports shares one bucket.
func remoteHost(c net.Conn) string {
	addr := c.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

// challenge runs the v2 auth exchange: nonce out, MAC back, constant
// time compare. It reports whether the dialer proved the secret;
// failures are answered with an error frame before returning.
func (s *Server) challenge(c net.Conn, name string) bool {
	nonce := make([]byte, nonceLen)
	if _, err := rand.Read(nonce); err != nil {
		s.reject(c, errCodeAuth, "challenge unavailable")
		return false
	}
	if err := writeFrame(c, msgChallenge, marshalChallenge(nonce)); err != nil {
		return false
	}
	t, payload, err := readFrame(c)
	if err != nil || t != msgAuth {
		s.reject(c, errCodeAuth, "expected auth answer")
		return false
	}
	mac, err := unmarshalAuth(payload)
	if err != nil || !hmac.Equal(mac, authMAC(s.cfg.Secret, nonce, name)) {
		s.reject(c, errCodeAuth, "authentication failed")
		return false
	}
	return true
}

// handleConn speaks one agent control session: hello handshake
// (challenge/auth when a secret is configured), then a strict
// request/response loop (heartbeat → assign, push → push-ack). A
// heartbeat from an agent the lease machine expired gets a bye so the
// agent knows to re-register.
func (s *Server) handleConn(c net.Conn) {
	defer c.Close()
	defer s.dropConn(c)

	t, payload, err := readFrame(c)
	if err != nil || t != msgHello {
		return
	}
	hello, err := unmarshalHello(payload)
	if err != nil || hello.Name == "" {
		return
	}
	ver, err := Negotiate(hello.Min, hello.Max)
	if err != nil {
		s.reject(c, errCodeVersion, err.Error())
		return
	}
	host := remoteHost(c)
	if !s.regLim.allow(host, s.cfg.Now()) {
		s.reject(c, errCodeRate, "register rate limit exceeded")
		return
	}
	if s.cfg.Secret != "" {
		if ver < 2 {
			s.reject(c, errCodeVersion, "authentication requires protocol v2")
			return
		}
		if !s.challenge(c, hello.Name) {
			return
		}
	}

	s.mu.Lock()
	regErr := s.st.Register(hello.Name, s.cfg.Now())
	if regErr == nil {
		s.emit([]string{s.st.lastLine()})
		s.persistLeases()
	}
	ack := helloAckMsg{Version: ver, TTL: s.st.TTL(), Epoch: s.st.Epoch()}
	s.mu.Unlock()
	if regErr != nil {
		return
	}
	if err := writeFrame(c, msgHelloAck, marshalHelloAck(ack)); err != nil {
		return
	}

	for {
		t, payload, err := readFrame(c)
		if err != nil {
			return
		}
		switch t {
		case msgHeartbeat:
			hb, err := unmarshalHeartbeat(payload)
			if err != nil {
				return
			}
			s.mu.Lock()
			asg, hbErr := s.st.Heartbeat(hello.Name, s.cfg.Now())
			s.mu.Unlock()
			if hbErr != nil {
				writeFrame(c, msgBye, nil)
				return
			}
			reply := assignMsg{Seq: hb.Seq, Budget: asg.Budget, Leases: asg.Leases}
			if err := writeFrame(c, msgAssign, marshalAssign(reply)); err != nil {
				return
			}
		case msgPush:
			if !s.pushLim.allow(host, s.cfg.Now()) {
				s.reject(c, errCodeRate, "push rate limit exceeded")
				return
			}
			p, err := unmarshalPush(payload)
			if err != nil {
				return
			}
			contrib, err := pushToContribution(p)
			if err != nil {
				// Structurally invalid digest: refuse the push but keep
				// the session — the agent's next snapshot may be fine.
				writeFrame(c, msgPushAck, marshalPushAck(pushAckMsg{Seq: p.Seq}))
				continue
			}
			applied := s.fed.Push(hello.Name, p.Path, contrib)
			if applied && s.cfg.Persist != nil {
				if perr := s.cfg.Persist.SaveContribution(hello.Name, p.Path, contrib); perr != nil {
					s.mu.Lock()
					s.persistErrs++
					s.persistErr = perr
					s.mu.Unlock()
				}
			}
			if err := writeFrame(c, msgPushAck, marshalPushAck(pushAckMsg{Seq: p.Seq, Applied: applied})); err != nil {
				return
			}
		case msgBye:
			return
		default:
			return
		}
	}
}
