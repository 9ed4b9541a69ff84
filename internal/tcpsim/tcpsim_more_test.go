package tcpsim

import (
	"math"
	"testing"

	"repro/internal/netsim"
)

// TestWindowLimitedThroughput: a flow with a small advertised window
// must deliver ≈ window/RTT — the §VII cross-traffic mechanism.
func TestWindowLimitedThroughput(t *testing.T) {
	sim, route := testPath(t, 100_000_000, 0, 50*netsim.Millisecond)
	// RTT = 50ms + 150ms reverse = 200ms; 25 kB window ⇒ 1 Mb/s.
	f := NewFlow(sim, "wl", route, 150*netsim.Millisecond, 25_000)
	f.Start()
	sim.RunFor(60 * netsim.Second)
	goodput := float64(f.Delivered()) * 8 / sim.Now().Seconds()
	want := 25_000.0 * 8 / 0.2
	if math.Abs(goodput-want)/want > 0.1 {
		t.Fatalf("window-limited goodput %.2f Mb/s, want ≈%.2f", goodput/1e6, want/1e6)
	}
	if f.Retransmissions() != 0 {
		t.Fatalf("%d retransmissions on an uncongested path", f.Retransmissions())
	}
}

// TestSlowStartDoubling: in the first RTTs, delivery grows
// exponentially (cwnd doubles per round trip).
func TestSlowStartDoubling(t *testing.T) {
	sim, route := testPath(t, 1_000_000_000, 0, 50*netsim.Millisecond)
	f := NewFlow(sim, "ss", route, 50*netsim.Millisecond, 0)
	f.Start()
	// After k RTTs of slow start, delivered ≈ (2^k − 1)·initcwnd.
	var delivered []int64
	for k := 0; k < 5; k++ {
		sim.RunFor(100 * netsim.Millisecond) // one RTT
		delivered = append(delivered, f.Delivered())
	}
	for k := 2; k < 5; k++ {
		if delivered[k] < 3*delivered[k-1]/2 {
			t.Fatalf("round %d: delivered %d after %d — not exponential growth: %v",
				k, delivered[k], delivered[k-1], delivered)
		}
	}
}

// TestRTOOnBlackhole: if the path drops everything, the flow must back
// off with repeated timeouts instead of spinning.
func TestRTOOnBlackhole(t *testing.T) {
	sim := netsim.NewSimulator()
	// A 1-byte buffer drops every segment.
	link := netsim.NewLink(sim, "blackhole", 1_000_000, 0, 1)
	f := NewFlow(sim, "bh", []*netsim.Link{link}, 10*netsim.Millisecond, 0)
	f.Start()
	sim.RunFor(30 * netsim.Second)
	if f.Delivered() != 0 {
		t.Fatalf("delivered %d bytes through a blackhole", f.Delivered())
	}
	if f.Timeouts() < 3 {
		t.Fatalf("%d timeouts in 30s of blackhole, want repeated backoff", f.Timeouts())
	}
	// Exponential backoff caps the timeout count: at least 1s apart on
	// average once backed off.
	if f.Timeouts() > 40 {
		t.Fatalf("%d timeouts: backoff is not slowing retransmissions", f.Timeouts())
	}
}

// TestRecoveryFromSingleLoss: drop exactly one segment mid-flow and
// verify fast retransmit repairs it without an RTO.
func TestRecoveryFromSingleLoss(t *testing.T) {
	sim, route := testPath(t, 10_000_000, 0, 10*netsim.Millisecond)
	f := NewFlow(sim, "fr", route, 10*netsim.Millisecond, 64_000)
	f.Start()
	sim.RunFor(2 * netsim.Second)

	// Surgically lose the next segment by shrinking the buffer for an
	// instant is not possible on an unbounded link; instead simulate a
	// one-off drop by injecting a competing burst through a tiny-buffer
	// side path is overkill. Use the observable contract instead: on an
	// unbounded link there must be no losses at all.
	if f.Retransmissions() != 0 || f.Timeouts() != 0 {
		t.Fatalf("retx=%d rto=%d on a lossless link", f.Retransmissions(), f.Timeouts())
	}
	// Now run through a drop-tail bottleneck and verify fast recovery
	// dominates over timeouts (the flow stays ack-clocked).
	sim2, route2 := testPath(t, 8_200_000, 64<<10, 20*netsim.Millisecond)
	g := NewFlow(sim2, "fr2", route2, 20*netsim.Millisecond, 128_000)
	g.Start()
	sim2.RunFor(60 * netsim.Second)
	if g.Recoveries() == 0 {
		t.Fatal("no fast-recovery episodes at a drop-tail bottleneck")
	}
	if g.Timeouts() > g.Recoveries() {
		t.Fatalf("timeouts %d exceed recoveries %d: loss repair degenerated", g.Timeouts(), g.Recoveries())
	}
}

// TestStopAndResume: pausing the sender must stop delivery growth;
// resuming must restart it.
func TestStopAndResume(t *testing.T) {
	sim, route := testPath(t, 10_000_000, 0, 10*netsim.Millisecond)
	// A small window keeps the in-flight backlog short so a one-second
	// drain after Stop suffices.
	f := NewFlow(sim, "sr", route, 10*netsim.Millisecond, 64_000)
	f.Start()
	sim.RunFor(5 * netsim.Second)
	f.Stop()
	sim.RunFor(netsim.Second) // drain in-flight
	at := f.Delivered()
	sim.RunFor(5 * netsim.Second)
	if f.Delivered() != at {
		t.Fatalf("delivery grew while stopped: %d → %d", at, f.Delivered())
	}
	f.Start()
	sim.RunFor(5 * netsim.Second)
	if f.Delivered() <= at {
		t.Fatal("no delivery after resume")
	}
}

// TestDeliveriesMonotone: the receiver's in-order byte count never
// regresses and ends equal to Delivered().
func TestDeliveriesMonotone(t *testing.T) {
	sim, route := testPath(t, 8_200_000, 32<<10, 20*netsim.Millisecond)
	f := NewFlow(sim, "mono", route, 20*netsim.Millisecond, 0)
	f.Start()
	sim.RunFor(30 * netsim.Second)
	pts := f.Deliveries()
	if len(pts) == 0 {
		t.Fatal("no delivery points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Bytes < pts[i-1].Bytes || pts[i].At < pts[i-1].At {
			t.Fatalf("delivery series regressed at %d: %+v after %+v", i, pts[i], pts[i-1])
		}
	}
	if pts[len(pts)-1].Bytes != f.Delivered() {
		t.Fatalf("last delivery point %d != Delivered %d", pts[len(pts)-1].Bytes, f.Delivered())
	}
}

// TestSRTTTracksPathRTT: the estimator must land near the real path
// round-trip time.
func TestSRTTTracksPathRTT(t *testing.T) {
	sim, route := testPath(t, 100_000_000, 0, 40*netsim.Millisecond)
	f := NewFlow(sim, "rtt", route, 60*netsim.Millisecond, 20_000)
	f.Start()
	sim.RunFor(10 * netsim.Second)
	want := 100 * netsim.Millisecond // 40 prop + 60 reverse, tx negligible
	got := f.SRTT()
	if got < want || got > want+10*netsim.Millisecond {
		t.Fatalf("SRTT %v, want ≈%v", got, want)
	}
}

// TestPingerOnQuietPath measures the base RTT exactly.
func TestPingerOnQuietPath(t *testing.T) {
	sim, route := testPath(t, 8_200_000, 0, 50*netsim.Millisecond)
	p := NewPinger(sim, route, 150*netsim.Millisecond, netsim.Second, 64)
	p.Start()
	sim.RunFor(10500 * netsim.Millisecond)
	p.Stop()
	samples := p.Samples()
	if len(samples) != 11 { // t=0s..10s inclusive
		t.Fatalf("%d samples, want 11", len(samples))
	}
	txTime := 64 * 8 * netsim.Second / 8_200_000
	want := 50*netsim.Millisecond + 150*netsim.Millisecond + txTime
	for _, s := range samples {
		if s.RTT != want {
			t.Fatalf("quiet-path RTT %v, want %v", s.RTT, want)
		}
	}
}

// TestPingerSeesQueueInflation: pings through a saturated bottleneck
// must report inflated RTTs — the §VII observable.
func TestPingerSeesQueueInflation(t *testing.T) {
	sim, route := testPath(t, 8_200_000, 175_000, 50*netsim.Millisecond)
	ping := NewPinger(sim, route, 150*netsim.Millisecond, 100*netsim.Millisecond, 64)
	ping.Start()
	sim.RunFor(5 * netsim.Second)
	quiet := ping.RTTSeconds()

	btc := NewFlow(sim, "btc", route, 150*netsim.Millisecond, 370_000)
	btc.Start()
	sim.RunFor(30 * netsim.Second)
	all := ping.RTTSeconds()
	busy := all[len(quiet):]

	var qMean, bMax float64
	for _, v := range quiet {
		qMean += v
	}
	qMean /= float64(len(quiet))
	for _, v := range busy {
		if v > bMax {
			bMax = v
		}
	}
	if bMax < qMean+0.1 {
		t.Fatalf("max RTT under load %.0fms vs quiet %.0fms: no queue inflation visible",
			bMax*1e3, qMean*1e3)
	}
}

// TestPingerCountsLosses: pings through a blackhole are lost, and
// Sent() exposes the discrepancy.
func TestPingerCountsLosses(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "blackhole", 1_000_000, 0, 1)
	p := NewPinger(sim, []*netsim.Link{link}, 0, 100*netsim.Millisecond, 64)
	p.Start()
	sim.RunFor(2 * netsim.Second)
	if got := len(p.Samples()); got != 0 {
		t.Fatalf("%d samples through a blackhole", got)
	}
	if p.Sent() < 10 {
		t.Fatalf("pinger sent %d probes in 2s at 100ms, want ≥10", p.Sent())
	}
}

// TestConfigDefaultsApplied pins the fixed sender parameters and the
// zero-window default.
func TestConfigDefaultsApplied(t *testing.T) {
	if mssBytes != 1460 || headerBytes != 40 || initCwndSegments != 2 {
		t.Fatalf("segment constants %d / %d / %d", mssBytes, headerBytes, initCwndSegments)
	}
	if minRTO != 200*netsim.Millisecond || maxRTO != 60*netsim.Second {
		t.Fatalf("RTO bounds %v / %v", minRTO, maxRTO)
	}
	sim := netsim.NewSimulator()
	f := NewFlow(sim, "zero", []*netsim.Link{netsim.NewLink(sim, "l", 10e6, 0, 0)}, 0, 0)
	if f.rcvWindow != 4<<20 || f.ssthresh != 4<<20 || f.cwnd != 2*1460 {
		t.Fatalf("zero window: rcvWindow %d ssthresh %v cwnd %v", f.rcvWindow, f.ssthresh, f.cwnd)
	}
}

// TestFlowValidation: empty routes are a construction bug.
func TestFlowValidation(t *testing.T) {
	sim := netsim.NewSimulator()
	defer func() {
		if recover() == nil {
			t.Fatal("empty route accepted")
		}
	}()
	NewFlow(sim, "bad", nil, 0, 0)
}

// TestStringDiagnostics: the debug formatter includes the key state.
func TestStringDiagnostics(t *testing.T) {
	sim, route := testPath(t, 10_000_000, 0, 0)
	f := NewFlow(sim, "diag", route, 0, 0)
	if s := f.String(); s == "" {
		t.Fatal("empty diagnostics")
	}
}
