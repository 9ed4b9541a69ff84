package coord

import (
	"flag"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tsstore"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// fakeAgent drives the raw control protocol over a real loopback
// connection, one request in flight at a time — the scripted stand-in
// for `pathload -agent` that makes the harness deterministic.
type fakeAgent struct {
	t    *testing.T
	name string
	conn net.Conn
}

// dialAgent connects, registers, and verifies the handshake.
func dialAgent(t *testing.T, addr, name string) *fakeAgent {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("%s: dial: %v", name, err)
	}
	a := &fakeAgent{t: t, name: name, conn: conn}
	if err := writeFrame(conn, msgHello, marshalHello(helloMsg{Min: VersionMin, Max: Version, Name: name})); err != nil {
		t.Fatalf("%s: hello: %v", name, err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil || typ != msgHelloAck {
		t.Fatalf("%s: hello answer = %v, %v", name, typ, err)
	}
	ack, err := unmarshalHelloAck(payload)
	if err != nil || ack.Version != Version {
		t.Fatalf("%s: hello-ack = %+v, %v", name, ack, err)
	}
	return a
}

// beat heartbeats and returns the assignment answer.
func (a *fakeAgent) beat(seq uint64) assignMsg {
	a.t.Helper()
	if err := writeFrame(a.conn, msgHeartbeat, marshalHeartbeat(heartbeatMsg{Seq: seq})); err != nil {
		a.t.Fatalf("%s: heartbeat: %v", a.name, err)
	}
	typ, payload, err := readFrame(a.conn)
	if err != nil {
		a.t.Fatalf("%s: heartbeat answer: %v", a.name, err)
	}
	if typ == msgBye {
		a.t.Fatalf("%s: coordinator said bye to a live agent", a.name)
	}
	asg, err := unmarshalAssign(payload)
	if err != nil {
		a.t.Fatalf("%s: assign: %v", a.name, err)
	}
	return asg
}

// push sends one contribution and returns whether it was applied.
func (a *fakeAgent) push(path string, c tsstore.Contribution) bool {
	a.t.Helper()
	if err := writeFrame(a.conn, msgPush, marshalPush(path, c)); err != nil {
		a.t.Fatalf("%s: push %s: %v", a.name, path, err)
	}
	typ, payload, err := readFrame(a.conn)
	if err != nil || typ != msgPushAck {
		a.t.Fatalf("%s: push answer = %v, %v", a.name, typ, err)
	}
	ack, err := unmarshalPushAck(payload)
	if err != nil || ack.Seq != c.Seq {
		a.t.Fatalf("%s: push-ack = %+v, %v (want seq %d)", a.name, ack, err, c.Seq)
	}
	return ack.Applied
}

// kill drops the connection without a bye — the crashed-agent case.
func (a *fakeAgent) kill() { a.conn.Close() }

// scriptedContribution builds deterministic measurement history for
// (agent, path): `rounds` points with agent- and path-distinct values.
func scriptedContribution(agent, path string, rounds int, seq uint64) tsstore.Contribution {
	base := 1e6 * float64(1+int(agent[len(agent)-1]-'0'))
	off := 1e5 * float64(int(path[len(path)-1]-'0'))
	c := tsstore.Contribution{Seq: seq, Digest: tsstore.NewDigest(16)}
	at := time.Duration(0)
	for r := 0; r < rounds; r++ {
		lo := base + off + float64(r)*1e4
		hi := lo + 2e5
		c.Points = append(c.Points, tsstore.Point{
			Round: r, At: at, Span: 500 * time.Millisecond, Lo: lo, Hi: hi, Bits: 1e4,
		})
		c.Digest.Add((lo + hi) / 2)
		at += time.Second
	}
	c.Total = uint64(rounds)
	return c
}

// TestHarnessKillRebalanceMerge is the control plane's pinned
// end-to-end scenario: three agents over loopback TCP against a
// coordinator on a scripted clock — grants, steals on join, one agent
// killed mid-run and expired exactly at its TTL, its group re-granted
// within one tick, the dead agent re-registering, and contributions
// from all three federating — with the whole observable record
// (transcript, per-beat assignments, push outcomes, /series, /metrics)
// byte-identical to the committed golden. Run with -update to regolden
// after an intentional behavior change.
func TestHarnessKillRebalanceMerge(t *testing.T) {
	var clock atomic.Int64
	setClock := func(d time.Duration) { clock.Store(int64(d)) }

	srv, err := NewServer(ServerConfig{
		Coord: Config{
			Paths: []string{"p00", "p01", "p02", "p03", "p04", "p05"},
			Conflicts: map[string][]string{
				"p00": {"p01"},
				"p02": {"p03"},
			},
			TTL:    5 * time.Second,
			Epoch:  2 * time.Second,
			Budget: 12e6,
		},
		Store: tsstore.Config{Capacity: 16, DigestSize: 16},
		Now:   func() time.Duration { return time.Duration(clock.Load()) },
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

	var report strings.Builder
	event := func(format string, args ...any) {
		fmt.Fprintf(&report, format+"\n", args...)
	}
	recordAssign := func(name string, asg assignMsg) {
		var leases []string
		for _, l := range asg.Leases {
			leases = append(leases, fmt.Sprintf("g%d:%s", l.Group, l.Path))
		}
		event("assign %s budget=%.0f [%s]", name, asg.Budget, strings.Join(leases, " "))
	}
	tick := func() {
		for _, line := range srv.Tick() {
			event("tick: %s", line)
		}
	}

	// t=0: the first agent gets the whole table.
	setClock(0)
	a1 := dialAgent(t, addr, "a1")
	tick()
	recordAssign("a1", a1.beat(1))

	// t=1s: two more agents join; the balancer steals whole groups.
	setClock(1 * time.Second)
	a2 := dialAgent(t, addr, "a2")
	a3 := dialAgent(t, addr, "a3")
	tick()
	recordAssign("a1", a1.beat(2))
	recordAssign("a2", a2.beat(1))
	recordAssign("a3", a3.beat(1))

	// Everyone pushes its first contributions.
	setClock(1500 * time.Millisecond)
	event("push a1 p04 applied=%v", a1.push("p04", scriptedContribution("a1", "p04", 3, 1)))
	event("push a1 p05 applied=%v", a1.push("p05", scriptedContribution("a1", "p05", 2, 1)))
	event("push a2 p00 applied=%v", a2.push("p00", scriptedContribution("a2", "p00", 2, 1)))
	event("push a2 p01 applied=%v", a2.push("p01", scriptedContribution("a2", "p01", 1, 1)))
	event("push a3 p02 applied=%v", a3.push("p02", scriptedContribution("a3", "p02", 2, 1)))
	event("push a3 p03 applied=%v", a3.push("p03", scriptedContribution("a3", "p03", 2, 1)))

	// t=2.5s, 3.5s: steady-state beats; a2 grows p00's series, and its
	// exact re-delivery must be a no-op.
	setClock(2500 * time.Millisecond)
	a1.beat(3)
	a2.beat(2)
	a3.beat(2)
	setClock(3500 * time.Millisecond)
	a1.beat(4)
	a2.beat(3)
	a3.beat(3)
	grown := scriptedContribution("a2", "p00", 4, 2)
	event("push a2 p00 applied=%v", a2.push("p00", grown))
	event("repush a2 p00 applied=%v", a2.push("p00", grown))

	// a2 crashes. Its TTL runs out exactly at 3.5s + 5s = 8.5s; the
	// survivors keep beating.
	a2.kill()
	setClock(5500 * time.Millisecond)
	tick() // nothing: a2 is within TTL until 8.5s
	a1.beat(5)
	a3.beat(4)
	setClock(7500 * time.Millisecond)
	a1.beat(6)
	a3.beat(5)

	// t=8.5s: the tick at the exact TTL boundary expires a2 and
	// re-grants its group in the same epoch.
	setClock(8500 * time.Millisecond)
	tick()
	recordAssign("a1", a1.beat(7))
	recordAssign("a3", a3.beat(6))
	// The new owner of p00 starts its own series; the dead agent's
	// pushed history stays federated.
	event("push a1 p00 applied=%v", a1.push("p00", scriptedContribution("a1", "p00", 1, 1)))

	// t=9s: a2 comes back from the dead and the balancer re-spreads.
	setClock(9 * time.Second)
	a2b := dialAgent(t, addr, "a2")
	tick()
	recordAssign("a1", a1.beat(8))
	recordAssign("a2", a2b.beat(1))
	recordAssign("a3", a3.beat(7))

	// The complete decision log (registrations included), then the
	// federated scrape surface, byte-for-byte.
	fmt.Fprintf(&report, "== transcript ==\n%s\n", strings.Join(srv.Transcript(), "\n"))
	h := srv.Handler()
	for _, ep := range []string{"/coord", "/series", "/metrics"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", ep, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", ep, rec.Code)
		}
		fmt.Fprintf(&report, "== GET %s ==\n%s", ep, rec.Body.String())
	}

	full := "== events ==\n" + report.String()
	golden := filepath.Join("testdata", "harness.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(full), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run once with -update to create it): %v", err)
	}
	if full != string(want) {
		t.Fatalf("harness record deviates from golden %s:\n--- got ---\n%s\n--- want ---\n%s", golden, full, want)
	}
}
