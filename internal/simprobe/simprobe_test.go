package simprobe

import (
	"math"
	"testing"
	"time"

	"repro/internal/crosstraffic"
	"repro/internal/fluid"
	"repro/internal/netsim"

	pathload "repro"
)

// quietPath builds an unloaded single-link path.
func quietPath(capacity int64, buf int) (*netsim.Simulator, []*netsim.Link) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", capacity, 5*netsim.Millisecond, buf)
	return sim, []*netsim.Link{link}
}

// TestOWDsMatchFluidModel sends a stream above the avail-bw of a
// CBR-loaded link and compares the per-packet OWD slope against the
// analytical fluid model.
func TestOWDsMatchFluidModel(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 5*netsim.Millisecond, 0)
	// Smooth CBR load: 6 Mb/s of 100-byte packets from 50 sources.
	agg := crosstraffic.NewAggregate(sim, link, 6e6, 50,
		crosstraffic.ModelCBR, crosstraffic.FixedSize{Bytes: 100}, 9)
	agg.Start()
	sim.RunFor(2 * netsim.Second)

	p := New(sim, []*netsim.Link{link}, 10*netsim.Millisecond)
	const rate, l, k = 8e6, 500, 100
	res, err := p.SendStream(pathload.StreamSpec{Rate: rate, K: k, L: l, T: time.Duration(float64(l) * 8 / rate * 1e9)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OWDs) != k {
		t.Fatalf("received %d packets, want %d (no losses configured)", len(res.OWDs), k)
	}

	first := res.OWDs[0].OWD.Seconds()
	last := res.OWDs[k-1].OWD.Seconds()
	gotSlope := (last - first) / float64(k-1)
	wantSlope := fluid.OWDSlope(rate, l, fluid.Path{{C: 10e6, A: 4e6}})
	if rel := math.Abs(gotSlope-wantSlope) / wantSlope; rel > 0.25 {
		t.Fatalf("OWD slope %.3g s/pkt vs fluid %.3g (rel err %.2f)", gotSlope, wantSlope, rel)
	}
}

// TestClockOffsetInvariance: a constant receiver clock offset must not
// change OWD differences — the property §IV relies on.
func TestClockOffsetInvariance(t *testing.T) {
	run := func(offset time.Duration) []pathload.OWDSample {
		sim, route := quietPath(10_000_000, 0)
		p := New(sim, route, 10*netsim.Millisecond)
		p.ClockOffset = offset
		res, err := p.SendStream(pathload.StreamSpec{Rate: 4e6, K: 20, L: 500, T: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return res.OWDs
	}
	plain := run(0)
	skewed := run(3 * time.Hour)
	if len(plain) != len(skewed) {
		t.Fatal("offset changed delivery")
	}
	for i := 1; i < len(plain); i++ {
		d0 := plain[i].OWD - plain[i-1].OWD
		d1 := skewed[i].OWD - skewed[i-1].OWD
		if d0 != d1 {
			t.Fatalf("OWD differences diverge at %d: %v vs %v", i, d0, d1)
		}
	}
	if skewed[0].OWD-plain[0].OWD != 3*time.Hour {
		t.Fatal("offset not applied")
	}
}

// TestLossReporting drops packets at a tiny buffer and checks the loss
// accounting.
func TestLossReporting(t *testing.T) {
	sim, route := quietPath(1_000_000, 2000) // tiny buffer, slow link
	p := New(sim, route, 10*netsim.Millisecond)
	// 10 Mb/s into a 1 Mb/s link: most packets must drop.
	res, err := p.SendStream(pathload.StreamSpec{Rate: 10e6, K: 50, L: 1000, T: 800 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 50 {
		t.Fatalf("sent %d, want 50", res.Sent)
	}
	if res.LossRate() < 0.5 {
		t.Fatalf("loss rate %.2f, want heavy loss through the 10:1 overload", res.LossRate())
	}
	if len(res.OWDs) == 0 {
		t.Fatal("everything lost; the first packets should fit the buffer")
	}
}

// TestIdleAdvancesVirtualTime pins the Idle contract.
func TestIdleAdvancesVirtualTime(t *testing.T) {
	sim, route := quietPath(10_000_000, 0)
	p := New(sim, route, 0)
	before := sim.Now()
	if err := p.Idle(250 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := sim.Now() - before; got != 250*netsim.Millisecond {
		t.Fatalf("Idle advanced %v, want 250ms", got)
	}
}

// TestRTT sums propagation plus the reverse delay.
func TestRTT(t *testing.T) {
	sim := netsim.NewSimulator()
	route := []*netsim.Link{
		netsim.NewLink(sim, "a", 1e6, 10*netsim.Millisecond, 0),
		netsim.NewLink(sim, "b", 1e6, 15*netsim.Millisecond, 0),
	}
	p := New(sim, route, 25*netsim.Millisecond)
	if got := p.RTT(); got != 50*time.Millisecond {
		t.Fatalf("RTT = %v, want 50ms", got)
	}
}

// TestInvalidSpecRejected pins input validation.
func TestInvalidSpecRejected(t *testing.T) {
	sim, route := quietPath(10_000_000, 0)
	p := New(sim, route, 0)
	for _, spec := range []pathload.StreamSpec{
		{K: 0, L: 100, T: time.Millisecond},
		{K: 10, L: 0, T: time.Millisecond},
		{K: 10, L: 100, T: 0},
	} {
		if _, err := p.SendStream(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// TestSeqOrderPreserved: FIFO paths deliver probes in order, and the
// result must reflect that.
func TestSeqOrderPreserved(t *testing.T) {
	sim, route := quietPath(50_000_000, 0)
	p := New(sim, route, 0)
	res, err := p.SendStream(pathload.StreamSpec{Rate: 20e6, K: 100, L: 500, T: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.OWDs {
		if s.Seq != i {
			t.Fatalf("sample %d has seq %d", i, s.Seq)
		}
	}
}
