package experiments

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/tcpsim"
)

// TestBTCDiagnostics inspects the §VII bulk flow on the contended path:
// it must claim clearly more than the residual avail-bw by squeezing
// the window-limited cross flows.
func TestBTCDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	p := buildBTCPath(99)
	p.sim.RunFor(warmup)

	// Measure cross-TCP throughput before the BTC flow.
	before := make([]int64, len(p.crossTCP))
	for i, f := range p.crossTCP {
		before[i] = f.Delivered()
	}
	p.sim.RunFor(60 * netsim.Second)
	for i, f := range p.crossTCP {
		tput := float64(f.Delivered()-before[i]) * 8 / 60
		t.Logf("cross tcp %d pre-BTC: %.2f Mb/s (timeouts %d)", i, tput/1e6, f.Timeouts())
	}

	flow := tcpsim.NewFlow(p.sim, "btc", p.links, p.reverse, btcWindow)
	flow.Start()
	start := p.sim.Now()
	for i, f := range p.crossTCP {
		before[i] = f.Delivered()
	}
	p.sim.RunFor(120 * netsim.Second)
	el := (p.sim.Now() - start).Seconds()

	tput := float64(flow.Delivered()) * 8 / el
	t.Logf("btc: %.2f Mb/s, retrans %d, timeouts %d, cwnd %.0f, srtt %v",
		tput/1e6, flow.Retransmissions(), flow.Timeouts(), flow.Cwnd(), flow.SRTT())
	for i, f := range p.crossTCP {
		ct := float64(f.Delivered()-before[i]) * 8 / el
		t.Logf("cross tcp %d during BTC: %.2f Mb/s (timeouts %d)", i, ct/1e6, f.Timeouts())
	}
	if tput < 3e6 {
		t.Errorf("BTC throughput %.2f Mb/s: should exceed the ≈3 Mb/s residual avail-bw", tput/1e6)
	}
}
