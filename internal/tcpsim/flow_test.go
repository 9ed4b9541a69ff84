package tcpsim

import (
	"testing"

	"repro/internal/netsim"
)

// testPath builds a single-link path with the given capacity, buffer,
// and one-way propagation delay.
func testPath(t *testing.T, capacity int64, buf int, prop netsim.Time) (*netsim.Simulator, []*netsim.Link) {
	t.Helper()
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l0", capacity, prop, buf)
	return sim, []*netsim.Link{link}
}

// TestBulkFlowSaturatesEmptyLink: a lone BTC flow on an idle link must
// reach a goodput close to the link capacity.
func TestBulkFlowSaturatesEmptyLink(t *testing.T) {
	sim, route := testPath(t, 8_200_000, 64<<10, 20*netsim.Millisecond)
	f := NewFlow(sim, "btc", route, 20*netsim.Millisecond, 0)
	f.Start()
	sim.RunFor(30 * netsim.Second)

	goodput := float64(f.Delivered()) * 8 / sim.Now().Seconds()
	t.Logf("goodput %.2f Mb/s of 8.2 Mb/s, %d retransmissions, %d timeouts, cwnd %.0f",
		goodput/1e6, f.Retransmissions(), f.Timeouts(), f.Cwnd())
	if goodput < 0.85*8.2e6 {
		t.Errorf("goodput %.2f Mb/s: lone bulk flow should approach link capacity 8.2 Mb/s", goodput/1e6)
	}
	if goodput > 8.2e6 {
		t.Errorf("goodput %.2f Mb/s exceeds link capacity", goodput/1e6)
	}
}

// TestTwoFlowsShareFairly: two identical flows should split the link
// roughly evenly and together still saturate it.
func TestTwoFlowsShareFairly(t *testing.T) {
	sim, route := testPath(t, 8_200_000, 64<<10, 20*netsim.Millisecond)
	a := NewFlow(sim, "a", route, 20*netsim.Millisecond, 0)
	b := NewFlow(sim, "b", route, 20*netsim.Millisecond, 0)
	a.Start()
	b.Start()
	sim.RunFor(60 * netsim.Second)

	ga := float64(a.Delivered()) * 8 / sim.Now().Seconds()
	gb := float64(b.Delivered()) * 8 / sim.Now().Seconds()
	t.Logf("goodputs %.2f and %.2f Mb/s", ga/1e6, gb/1e6)
	if ga+gb < 0.8*8.2e6 {
		t.Errorf("aggregate %.2f Mb/s: two flows should still fill the link", (ga+gb)/1e6)
	}
	ratio := ga / gb
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > 3 {
		t.Errorf("unfair split %.2f vs %.2f Mb/s (ratio %.1f)", ga/1e6, gb/1e6, ratio)
	}
}
