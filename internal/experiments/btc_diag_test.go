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

// TestBTCIntervalsReadTheirOwnSpan: each interval of the §VII frame is
// graded by the tight link's ground truth over the span it actually
// ran. Here every busy interval overruns its nominal end by a known
// amount, as a probing interval that ends with its last pathload run
// does: the overrun belongs to that interval's reading, and the next
// interval starts where it stopped.
func TestBTCIntervalsReadTheirOwnSpan(t *testing.T) {
	const overrun = 7 * netsim.Second
	e := newBTCExperiment(Options{Scale: 0.05, Seed: 3}, 3, netsim.Second)
	type mark struct {
		at  netsim.Time
		ctr netsim.LinkCounters
	}
	marks := []mark{{e.sim.Now(), e.tight.Counters()}}
	markNow := func() { marks = append(marks, mark{e.sim.Now(), e.tight.Counters()}) }
	avail, _, _ := e.run(func(i int, end netsim.Time) {
		markNow() // the quiet interval before this one ends here
		e.sim.Run(end + overrun)
		markNow()
	})
	markNow()
	if len(marks) != len(btcIntervalNames)+1 {
		t.Fatalf("%d interval boundaries, want %d", len(marks), len(btcIntervalNames)+1)
	}
	for i, name := range btcIntervalNames {
		from, to := marks[i], marks[i+1]
		want := e.interval
		if btcBusy(name) {
			want += overrun
		}
		if span := to.at - from.at; span != want {
			t.Errorf("interval %s ran %v, want %v", name, span, want)
		}
		util := float64(to.ctr.Busy-from.ctr.Busy) / float64(to.at-from.at)
		if truth := float64(e.tight.Capacity()) * (1 - util); avail[i] != truth {
			t.Errorf("interval %s reads %.4f Mb/s, want %.4f over [%v, %v]", name, avail[i]/1e6, truth/1e6, from.at, to.at)
		}
	}
}
