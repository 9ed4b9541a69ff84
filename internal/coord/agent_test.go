package coord

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	pathload "repro"
	"repro/internal/tsstore"
)

// stubProber is an analytic prober for agent tests: streams above its
// avail-bw ramp, streams below arrive flat (the monitor_test fakePath
// pattern, minus the failure machinery).
type stubProber struct{ avail float64 }

func (f *stubProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	res := pathload.StreamResult{Sent: spec.K}
	for i := 0; i < spec.K; i++ {
		owd := 5 * time.Millisecond
		if spec.EffectiveRate() > f.avail {
			owd += time.Duration(i) * 100 * time.Microsecond
		}
		res.OWDs = append(res.OWDs, pathload.OWDSample{Seq: i, OWD: owd})
	}
	return res, nil
}
func (f *stubProber) Idle(time.Duration) error { return nil }
func (f *stubProber) RTT() time.Duration       { return time.Millisecond }

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAgentEndToEnd drives real Agents against a real Server over
// loopback: one agent measures everything, a second joining triggers a
// rebalance (with the first agent's series resuming, not rewinding),
// and the first agent dying hands its path over within the TTL.
func TestAgentEndToEnd(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Coord: Config{
			Paths: []string{"p00", "p01"},
			TTL:   700 * time.Millisecond,
			Epoch: 50 * time.Millisecond,
		},
		AutoTick: true,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	newAgent := func(name string) *Agent {
		a, err := NewAgent(AgentConfig{
			Coord: addr,
			Name:  name,
			Provider: func(string) (pathload.ProberFactory, error) {
				return func() (pathload.Prober, error) { return &stubProber{avail: 5e6}, nil }, nil
			},
			Heartbeat: 40 * time.Millisecond,
			PushEvery: 50 * time.Millisecond,
			Monitor: pathload.MonitorConfig{
				Interval: 5 * time.Millisecond,
				Config: pathload.Config{
					PacketsPerStream: 8,
					StreamsPerFleet:  3,
					DisableInitProbe: true,
				},
			},
		})
		if err != nil {
			t.Fatalf("NewAgent(%s): %v", name, err)
		}
		return a
	}

	a1 := newAgent("a1")
	a1done := make(chan error, 1)
	go func() { a1done <- a1.Run() }()
	defer a1.Stop()

	fed := srv.Federation()
	waitFor(t, "a1 measuring both paths", func() bool {
		for _, p := range []string{"p00", "p01"} {
			c, ok := fed.Contribution("a1", p)
			if !ok || c.Total < 2 {
				return false
			}
		}
		return true
	})

	// A second agent joins: the balancer must split the two singleton
	// paths one per agent, and a2's measurements must start federating.
	a2 := newAgent("a2")
	a2done := make(chan error, 1)
	go func() { a2done <- a2.Run() }()
	defer a2.Stop()
	waitFor(t, "rebalance to one path per agent", func() bool {
		o0, o1 := srv.Owner("p00"), srv.Owner("p01")
		return o0 != "" && o1 != "" && o0 != o1
	})
	var a2path string
	if srv.Owner("p00") == "a2" {
		a2path = "p00"
	} else {
		a2path = "p01"
	}
	a1path := "p00"
	if a2path == "p00" {
		a1path = "p01"
	}
	waitFor(t, "a2 contributions federated", func() bool {
		c, ok := fed.Contribution("a2", a2path)
		return ok && c.Total >= 1
	})

	// Resume contract: a1 restarted its monitor when its lease set
	// shrank, and its pushed series must continue — rounds strictly
	// increasing, never rewound to a duplicate 0.
	waitFor(t, "a1 pushing its kept path after rebalance", func() bool {
		c, ok := fed.Contribution("a1", a1path)
		return ok && c.Total >= 4
	})
	c, _ := fed.Contribution("a1", a1path)
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Round <= c.Points[i-1].Round {
			t.Fatalf("a1 %s rounds rewound after monitor restart: %d then %d",
				a1path, c.Points[i-1].Round, c.Points[i].Round)
		}
	}

	// a1 dies; within the TTL its path must be reassigned to a2 and
	// measured by it.
	a1.Stop()
	if err := <-a1done; err != nil {
		t.Fatalf("a1.Run: %v", err)
	}
	waitFor(t, "a1's path handed to a2", func() bool {
		return srv.Owner(a1path) == "a2" && srv.Owner(a2path) == "a2"
	})
	waitFor(t, "a2 measuring the inherited path", func() bool {
		c, ok := fed.Contribution("a2", a1path)
		return ok && c.Total >= 1
	})

	a2.Stop()
	if err := <-a2done; err != nil {
		t.Fatalf("a2.Run: %v", err)
	}
}

// TestAgentRetriesFailedProvider: a lease whose monitor could not start
// is not held. The Provider fails its first call, the session drops and
// re-registers, the coordinator assigns the same lease again, and this
// time the path must be measured instead of sitting idle on a lease the
// agent already thinks it runs.
func TestAgentRetriesFailedProvider(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Coord:    Config{Paths: []string{"p00"}, TTL: 700 * time.Millisecond, Epoch: 50 * time.Millisecond},
		AutoTick: true,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)

	var mu sync.Mutex
	calls := 0
	a, err := NewAgent(AgentConfig{
		Coord: ln.Addr().String(),
		Name:  "a1",
		Provider: func(string) (pathload.ProberFactory, error) {
			mu.Lock()
			defer mu.Unlock()
			if calls++; calls == 1 {
				return nil, errors.New("transport not ready")
			}
			return func() (pathload.Prober, error) { return &stubProber{avail: 5e6}, nil }, nil
		},
		Heartbeat:   40 * time.Millisecond,
		PushEvery:   50 * time.Millisecond,
		DialBackoff: 5 * time.Millisecond,
		Monitor: pathload.MonitorConfig{
			Interval: 5 * time.Millisecond,
			Config:   pathload.Config{PacketsPerStream: 8, StreamsPerFleet: 3, DisableInitProbe: true},
		},
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	defer a.Stop()

	waitFor(t, "p00 measured after the provider recovered", func() bool {
		c, ok := srv.Federation().Contribution("a1", "p00")
		return ok && c.Total >= 1
	})
	a.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Errorf("Provider called %d times, want 2: one failure, one monitor", calls)
	}
}

// TestAgentSurvivesCoordinatorRestart: losing the control connection
// must not kill the agent — it re-dials with backoff and re-registers
// when the coordinator returns.
func TestAgentSurvivesCoordinatorRestart(t *testing.T) {
	cfgFor := func() ServerConfig {
		return ServerConfig{
			Coord: Config{
				Paths: []string{"p00"},
				TTL:   500 * time.Millisecond,
				Epoch: 50 * time.Millisecond,
			},
			AutoTick: true,
		}
	}
	srv1, err := NewServer(cfgFor())
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv1.Serve(ln1)
	addr := ln1.Addr().String()

	a, err := NewAgent(AgentConfig{
		Coord: addr,
		Name:  "a1",
		Provider: func(string) (pathload.ProberFactory, error) {
			return func() (pathload.Prober, error) { return &stubProber{avail: 5e6}, nil }, nil
		},
		Heartbeat:   40 * time.Millisecond,
		PushEvery:   50 * time.Millisecond,
		DialBackoff: 20 * time.Millisecond,
		Monitor: pathload.MonitorConfig{
			Interval: 5 * time.Millisecond,
			Config:   pathload.Config{PacketsPerStream: 8, StreamsPerFleet: 3, DisableInitProbe: true},
		},
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	defer a.Stop()

	waitFor(t, "first coordinator seeing pushes", func() bool {
		c, ok := srv1.Federation().Contribution("a1", "p00")
		return ok && c.Total >= 1
	})

	// Coordinator dies and is reborn on the same address.
	srv1.Close()
	ln1.Close()
	var srv2 *Server
	var ln2 net.Listener
	waitFor(t, "rebinding the coordinator address", func() bool {
		ln2, err = net.Listen("tcp", addr)
		if err != nil {
			return false
		}
		return true
	})
	srv2, err = NewServer(cfgFor())
	if err != nil {
		t.Fatalf("NewServer(2): %v", err)
	}
	defer srv2.Close()
	go srv2.Serve(ln2)

	waitFor(t, "agent re-registering with the reborn coordinator", func() bool {
		c, ok := srv2.Federation().Contribution("a1", "p00")
		return ok && c.Total >= 1
	})

	// The agent's local series kept growing across the outage; the new
	// coordinator sees a non-rewound stream.
	c, _ := srv2.Federation().Contribution("a1", "p00")
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Round <= c.Points[i-1].Round {
			t.Fatalf("rounds rewound across coordinator restart: %d then %d",
				c.Points[i-1].Round, c.Points[i].Round)
		}
	}
	a.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAgentBackoffResetsAfterRegistering: a session that registered
// resets the dial backoff, so after two failed dials and one healthy
// session the next loss waits DialBackoff again, not the escalated 4×.
func TestAgentBackoffResetsAfterRegistering(t *testing.T) {
	const backoff = 5 * time.Millisecond
	var (
		mu     sync.Mutex
		dials  int
		events []string
	)
	dial := func() (net.Conn, error) {
		mu.Lock()
		dials++
		n := dials
		mu.Unlock()
		if n <= 2 {
			return nil, errors.New("coordinator down")
		}
		agent, coordEnd := net.Pipe()
		go func() {
			defer coordEnd.Close()
			if n > 3 {
				return // later sessions drop before hello-ack
			}
			if _, _, err := readFrame(coordEnd); err != nil {
				return
			}
			// Register the agent, then drop the session.
			writeFrame(coordEnd, msgHelloAck, marshalHelloAck(helloAckMsg{Version: Version, TTL: time.Second}))
		}()
		return agent, nil
	}
	a, err := NewAgent(AgentConfig{
		Dial: dial,
		Name: "a1",
		Provider: func(string) (pathload.ProberFactory, error) {
			return func() (pathload.Prober, error) { return &stubProber{avail: 5e6}, nil }, nil
		},
		DialBackoff: backoff,
		OnEvent: func(line string) {
			mu.Lock()
			defer mu.Unlock()
			if strings.HasPrefix(line, "control session lost:") {
				events = append(events, line)
			}
		},
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	waitFor(t, "three lost sessions", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) >= 3
	})
	a.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, want := range []time.Duration{backoff, 2 * backoff, backoff} {
		if suffix := "(retry in " + want.String() + ")"; !strings.HasSuffix(events[i], suffix) {
			t.Errorf("loss %d: %q, want it to end %q", i+1, events[i], suffix)
		}
	}
}

// TestAgentRepushesUnackedPaths: a session lost between pushes leaves
// every path whose push-ack never arrived to the next session, although
// no path's series changes in between (the agent holds no lease, as
// after a lease moved away during the outage). The first coordinator
// acks one push, reads the next and hangs up; the second acks all, then
// counts heartbeats: heartbeats and pushes tick at the same period on
// one loop, so after several heartbeats several pushes found nothing
// left to push.
func TestAgentRepushesUnackedPaths(t *testing.T) {
	paths := []string{"p00", "p01", "p02"}
	store := tsstore.New(tsstore.Config{Capacity: 8})
	for _, p := range paths {
		for r := 0; r < 3; r++ {
			store.Observe(pathload.Sample{Path: p, Round: r, At: time.Duration(r) * time.Second,
				Result: pathload.Result{Lo: 1e6, Hi: 2e6, Elapsed: time.Second}})
		}
	}

	var (
		mu     sync.Mutex
		dials  int
		pushed = map[int][]string{} // session → paths pushed, in order
		acked  = map[int][]string{} // session → paths acked, in order
		beats  int                  // heartbeats since the last ack
	)
	// coordinator serves one session: register, answer heartbeats with
	// an empty assignment, and ack pushes; session 1 acks only the
	// first and hangs up once it has read the second.
	coordinator := func(session int, c net.Conn) {
		defer c.Close()
		if _, _, err := readFrame(c); err != nil {
			return
		}
		if writeFrame(c, msgHelloAck, marshalHelloAck(helloAckMsg{Version: Version, TTL: time.Hour})) != nil {
			return
		}
		for {
			typ, payload, err := readFrame(c)
			if err != nil {
				return
			}
			switch typ {
			case msgHeartbeat:
				mu.Lock()
				beats++
				mu.Unlock()
				hb, _ := unmarshalHeartbeat(payload)
				if writeFrame(c, msgAssign, marshalAssign(assignMsg{Seq: hb.Seq})) != nil {
					return
				}
			case msgPush:
				path, p, err := unmarshalPush(payload)
				if err != nil {
					t.Errorf("session %d: %v", session, err)
					return
				}
				mu.Lock()
				pushed[session] = append(pushed[session], path)
				drop := session == 1 && len(acked[1]) == 1
				if !drop {
					acked[session] = append(acked[session], path)
					beats = 0
				}
				mu.Unlock()
				if drop {
					return // the push was read, its ack never sent
				}
				if writeFrame(c, msgPushAck, marshalPushAck(pushAckMsg{Seq: p.Seq, Applied: true})) != nil {
					return
				}
			}
		}
	}
	a, err := NewAgent(AgentConfig{
		Dial: func() (net.Conn, error) {
			mu.Lock()
			dials++
			n := dials
			mu.Unlock()
			agentEnd, coordEnd := net.Pipe()
			go coordinator(n, coordEnd)
			return agentEnd, nil
		},
		Name: "a1",
		Provider: func(string) (pathload.ProberFactory, error) {
			return func() (pathload.Prober, error) { return &stubProber{avail: 5e6}, nil }, nil
		},
		LocalStore:  store,
		Heartbeat:   5 * time.Millisecond,
		PushEvery:   5 * time.Millisecond,
		DialBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	waitFor(t, "the second session to push, then beat 10 times", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acked[2]) >= 2 && beats >= 10
	})
	a.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if got, want := strings.Join(acked[1], ","), "p00"; got != want {
		t.Fatalf("session 1 acked %q, want %q", got, want)
	}
	if got, want := strings.Join(pushed[1], ","), "p00,p01"; got != want {
		t.Fatalf("session 1 pushed %q, want %q", got, want)
	}
	if got, want := strings.Join(pushed[2], ","), "p01,p02"; got != want {
		t.Errorf("session 2 pushed %q, want every path session 1 did not ack, %q", got, want)
	}
}

// gatedProber is a stubProber whose streams take wall time and count
// how many run at once across every path that shares the tally.
type gatedProber struct {
	stubProber
	tally *inflightTally
}

type inflightTally struct {
	mu              sync.Mutex
	now, max, total int
}

func (p *gatedProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	p.tally.mu.Lock()
	p.tally.now++
	p.tally.total++
	p.tally.max = max(p.tally.max, p.tally.now)
	p.tally.mu.Unlock()
	time.Sleep(2 * time.Millisecond)
	p.tally.mu.Lock()
	p.tally.now--
	p.tally.mu.Unlock()
	return p.stubProber.SendStream(spec)
}

// TestAgentConflictGroupsKeepDefaultWorkers: an agent whose Monitor
// leaves Workers at 0 caps its paths at DefaultMonitorWorkers whether
// or not its leases share conflict groups. The group policy replaces
// the Monitor's default, so it must carry the defaulted cap; six
// two-path groups under an uncapped policy measure six at once.
func TestAgentConflictGroupsKeepDefaultWorkers(t *testing.T) {
	var paths []string
	conflicts := map[string][]string{}
	for g := range 6 {
		a, b := fmt.Sprintf("p%02d", 2*g), fmt.Sprintf("p%02d", 2*g+1)
		paths = append(paths, a, b)
		conflicts[a] = []string{b}
	}
	srv, err := NewServer(ServerConfig{
		Coord:    Config{Paths: paths, Conflicts: conflicts, TTL: time.Second, Epoch: 50 * time.Millisecond},
		AutoTick: true,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)

	tally := &inflightTally{}
	a, err := NewAgent(AgentConfig{
		Coord: ln.Addr().String(),
		Name:  "a1",
		Provider: func(string) (pathload.ProberFactory, error) {
			return func() (pathload.Prober, error) {
				return &gatedProber{stubProber: stubProber{avail: 5e6}, tally: tally}, nil
			}, nil
		},
		Heartbeat: 40 * time.Millisecond,
		PushEvery: 50 * time.Millisecond,
		Monitor: pathload.MonitorConfig{
			Config: pathload.Config{PacketsPerStream: 8, StreamsPerFleet: 3, DisableInitProbe: true},
		},
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	defer a.Stop()

	waitFor(t, "every path measured", func() bool {
		for _, p := range paths {
			if c, ok := srv.Federation().Contribution("a1", p); !ok || c.Total < 1 {
				return false
			}
		}
		return true
	})
	a.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	tally.mu.Lock()
	defer tally.mu.Unlock()
	if tally.max > pathload.DefaultMonitorWorkers {
		t.Errorf("%d rounds in flight at once over %d streams, want ≤ %d (DefaultMonitorWorkers)", tally.max, tally.total, pathload.DefaultMonitorWorkers)
	}
}
