package coord

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	pathload "repro"
	"repro/internal/tsstore"
)

// startServer spins up a server on loopback for raw-frame clients.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	if len(cfg.Coord.Paths) == 0 {
		cfg.Coord.Paths = []string{"p00"}
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

// sendHello dials and opens a session at the given version range,
// returning the first reply frame.
func sendHello(t *testing.T, addr, name string, min, max uint16) (net.Conn, msgType, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := writeFrame(conn, msgHello, marshalHello(helloMsg{Min: min, Max: max, Name: name})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("first reply: %v", err)
	}
	return conn, ft, payload
}

// expectError asserts the frame is a versioned rejection with code.
func expectError(t *testing.T, ft msgType, payload []byte, code uint16) {
	t.Helper()
	if ft != msgError {
		t.Fatalf("expected error frame, got %v", ft)
	}
	e, err := unmarshalError(payload)
	if err != nil {
		t.Fatalf("unmarshalError: %v", err)
	}
	if e.Code != code || e.Version != Version {
		t.Fatalf("error frame %+v, want code %d version %d", e, code, Version)
	}
}

// TestAuthHandshake walks the challenge exchange at the frame level:
// the right MAC registers, the wrong one is refused with a versioned
// auth error and never reaches the lease machine.
func TestAuthHandshake(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{Secret: "sesame"})

	conn, ft, payload := sendHello(t, addr, "good", VersionMin, Version)
	defer conn.Close()
	if ft != msgChallenge {
		t.Fatalf("expected challenge, got %v", ft)
	}
	nonce, err := unmarshalChallenge(payload)
	if err != nil {
		t.Fatalf("unmarshalChallenge: %v", err)
	}
	if err := writeFrame(conn, msgAuth, marshalAuth(authMAC("sesame", nonce, "good"))); err != nil {
		t.Fatalf("auth: %v", err)
	}
	ft, payload, err = readFrame(conn)
	if err != nil {
		t.Fatalf("hello-ack: %v", err)
	}
	if ft != msgHelloAck {
		t.Fatalf("expected hello-ack, got %v", ft)
	}
	ack, err := unmarshalHelloAck(payload)
	if err != nil || ack.Version != Version {
		t.Fatalf("ack %+v (%v)", ack, err)
	}

	bad, ft, payload := sendHello(t, addr, "bad", VersionMin, Version)
	defer bad.Close()
	if ft != msgChallenge {
		t.Fatalf("expected challenge, got %v", ft)
	}
	nonce, _ = unmarshalChallenge(payload)
	if err := writeFrame(bad, msgAuth, marshalAuth(authMAC("wrong", nonce, "bad"))); err != nil {
		t.Fatalf("auth: %v", err)
	}
	ft, payload, err = readFrame(bad)
	if err != nil {
		t.Fatalf("rejection: %v", err)
	}
	expectError(t, ft, payload, errCodeAuth)

	for _, line := range srv.Transcript() {
		if strings.Contains(line, "register bad") {
			t.Fatalf("unauthenticated agent reached the lease machine: %q", line)
		}
	}
}

// TestAuthRequiresV2: a coordinator holding a secret refuses v1-only
// dialers with a version error — it cannot challenge them.
func TestAuthRequiresV2(t *testing.T) {
	_, addr := startServer(t, ServerConfig{Secret: "sesame"})
	conn, ft, payload := sendHello(t, addr, "old", 1, 1)
	defer conn.Close()
	expectError(t, ft, payload, errCodeVersion)
}

// TestVersionGateWithoutSecret: a coordinator with no secret refuses
// v1-only dialers too — the version gate is negotiation, not auth.
func TestVersionGateWithoutSecret(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{})
	conn, ft, payload := sendHello(t, addr, "old", 1, 1)
	defer conn.Close()
	expectError(t, ft, payload, errCodeVersion)
	for _, line := range srv.Transcript() {
		if strings.Contains(line, "register old") {
			t.Fatalf("v1-only agent reached the lease machine: %q", line)
		}
	}
}

// TestPreviousGenerationRefused: a peer of protocol version 2, whose
// pushes carried fixed-width points and digests, is refused at the
// hello with a version error, so no push of that form reaches the
// federation or the log.
func TestPreviousGenerationRefused(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{})
	conn, ft, payload := sendHello(t, addr, "v2", 2, 2)
	defer conn.Close()
	expectError(t, ft, payload, errCodeVersion)
	for _, line := range srv.Transcript() {
		if strings.Contains(line, "register v2") {
			t.Fatalf("v2-only agent reached the lease machine: %q", line)
		}
	}
}

// TestAgentStopsAfterRejection: an agent with the wrong secret gets
// ErrRejected out of Run instead of a reconnect loop.
func TestAgentStopsAfterRejection(t *testing.T) {
	_, addr := startServer(t, ServerConfig{Secret: "sesame"})
	a, err := NewAgent(AgentConfig{
		Coord:  addr,
		Name:   "a1",
		Secret: "wrong",
		Provider: func(string) (pathload.ProberFactory, error) {
			return func() (pathload.Prober, error) { return &stubProber{avail: 5e6}, nil }, nil
		},
		DialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRejected) {
			t.Fatalf("Run returned %v, want ErrRejected", err)
		}
	case <-time.After(10 * time.Second):
		a.Stop()
		t.Fatal("rejected agent kept retrying")
	}
}

// TestAuthenticatedAgentEndToEnd: with matching secrets the full agent
// loop works — register, lease, measure, push.
func TestAuthenticatedAgentEndToEnd(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{
		Secret:   "sesame",
		Coord:    Config{Paths: []string{"p00"}, TTL: 2 * time.Second, Epoch: 50 * time.Millisecond},
		AutoTick: true,
	})
	a, err := NewAgent(AgentConfig{
		Coord:  addr,
		Name:   "a1",
		Secret: "sesame",
		Provider: func(string) (pathload.ProberFactory, error) {
			return func() (pathload.Prober, error) { return &stubProber{avail: 5e6}, nil }, nil
		},
		Heartbeat: 40 * time.Millisecond,
		PushEvery: 50 * time.Millisecond,
		Monitor: pathload.MonitorConfig{
			Interval: 5 * time.Millisecond,
			Config:   pathload.Config{PacketsPerStream: 8, StreamsPerFleet: 3, DisableInitProbe: true},
		},
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	go a.Run()
	defer a.Stop()
	waitFor(t, "authenticated agent federating", func() bool {
		c, ok := srv.Federation().Contribution("a1", "p00")
		return ok && c.Total >= 1
	})
}

// TestRegisterRateLimit: with the clock frozen, a burst-1 bucket
// admits the first registration from a host and refuses the second
// with a rate error.
func TestRegisterRateLimit(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		RegisterRate: 0.001,
		RateBurst:    1,
		Now:          func() time.Duration { return 0 },
	})
	c1, ft, _ := sendHello(t, addr, "a1", VersionMin, Version)
	defer c1.Close()
	if ft != msgHelloAck {
		t.Fatalf("first register: got %v", ft)
	}
	c2, ft, payload := sendHello(t, addr, "a2", VersionMin, Version)
	defer c2.Close()
	expectError(t, ft, payload, errCodeRate)
}

// TestPushRateLimit: the push bucket throttles a session that floods
// contributions.
func TestPushRateLimit(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		PushRate:  0.001,
		RateBurst: 1,
		Now:       func() time.Duration { return 0 },
	})
	conn, ft, _ := sendHello(t, addr, "a1", VersionMin, Version)
	defer conn.Close()
	if ft != msgHelloAck {
		t.Fatalf("register: got %v", ft)
	}
	push := marshalPush("p00", tsstore.Contribution{Seq: 1, Total: 1})
	if err := writeFrame(conn, msgPush, push); err != nil {
		t.Fatalf("push 1: %v", err)
	}
	ft, _, err := readFrame(conn)
	if err != nil || ft != msgPushAck {
		t.Fatalf("push 1 reply: %v %v", ft, err)
	}
	if err := writeFrame(conn, msgPush, push); err != nil {
		t.Fatalf("push 2: %v", err)
	}
	ft, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("push 2 reply: %v", err)
	}
	expectError(t, ft, payload, errCodeRate)
}

// TestRateLimiterRefill pins the token-bucket arithmetic on a scripted
// clock: a drained bucket refills at the configured rate and caps at
// the burst.
func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(2, 2) // 2 tokens/s, depth 2
	if !l.allow("h", 0) || !l.allow("h", 0) {
		t.Fatal("burst not honored")
	}
	if l.allow("h", 0) {
		t.Fatal("empty bucket allowed")
	}
	if l.allow("h", 400*time.Millisecond) {
		t.Fatal("allowed before a whole token refilled")
	}
	// 400ms at 2/s refilled 0.8; by 600ms it crossed 1.
	if !l.allow("h", 600*time.Millisecond) {
		t.Fatal("refilled token not granted")
	}
	// Independent hosts do not share buckets.
	if !l.allow("other", 0) {
		t.Fatal("fresh host should start with a full bucket")
	}
	if newRateLimiter(0, 5) != nil {
		t.Fatal("zero rate must disable the limiter")
	}
}

// TestRateLimiterForgetsFullBuckets: a host whose bucket has refilled
// is forgotten, so the limiter's memory is bounded by recent hosts, not
// by every host ever seen; and forgetting changes no decision on a
// random call sequence, against one limiter per host, which never has
// another host's bucket to forget.
func TestRateLimiterForgetsFullBuckets(t *testing.T) {
	l := newRateLimiter(2, 2)
	for i := 0; i < 10_000; i++ {
		l.allow(fmt.Sprintf("h%d", i), 0)
	}
	l.allow("late", time.Second) // burst/rate later
	if n := len(l.buckets); n > 4 {
		t.Fatalf("%d buckets after 10000 hosts went quiet, want a handful", n)
	}

	rng := rand.New(rand.NewSource(1))
	shared, alone := newRateLimiter(3, 4), map[string]*rateLimiter{}
	var now time.Duration
	for i := 0; i < 20_000; i++ {
		now += time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
		key := fmt.Sprintf("h%d", rng.Intn(50))
		if alone[key] == nil {
			alone[key] = newRateLimiter(3, 4)
		}
		if a, b := shared.allow(key, now), alone[key].allow(key, now); a != b {
			t.Fatalf("call %d (%s at %v): shared limiter says %v, per-host one %v", i, key, now, a, b)
		}
	}
	if len(shared.buckets) >= len(alone) {
		t.Errorf("shared limiter holds %d buckets of %d hosts", len(shared.buckets), len(alone))
	}
}

// TestCloseEndsServe: Close closes the listener a running Serve
// accepts on, which then returns nil, and the sessions it accepted;
// a Serve called after Close refuses to start.
func TestCloseEndsServe(t *testing.T) {
	srv, err := NewServer(ServerConfig{Coord: Config{Paths: []string{"p00"}}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	// An answered hello means Serve has registered its listener.
	conn, ft, _ := sendHello(t, ln.Addr().String(), "a1", VersionMin, Version)
	defer conn.Close()
	if ft != msgHelloAck {
		t.Fatalf("hello answered with %v", ft)
	}

	srv.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after Close returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running after Close")
	}
	if _, _, err := readFrame(conn); err == nil {
		t.Error("session still open after Close")
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	if err := srv.Serve(ln2); err == nil {
		t.Error("Serve on a closed server returned nil")
	}
}
