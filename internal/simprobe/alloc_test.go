package simprobe_test

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// TestSendStreamAllocationFree holds a prober's steady state at zero
// allocations: after its first stream has sized the arena, a stream and
// the idle behind it reuse the OWD slots and the returned buffer, draw
// packets and events from the simulator's freelists, and park through
// the Sequencer without a closure. The lossy case holds the other way
// out of the network to the same standard: a probe the tight link
// erases goes back to the packet freelist, so a stream that loses
// packets costs no fresh ones later.
func TestSendStreamAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		loss float64
	}{
		{name: "clean"},
		{name: "lossy", loss: 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := experiments.Topology{Seed: 1}.Build()
			net.Tight().Impair(netsim.Impairment{Loss: tc.loss, Seed: 9})
			net.Warmup(3 * netsim.Second)
			p := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
			spec := pathload.StreamSpec{Rate: 3e6, K: 100, L: 375, T: time.Millisecond}
			lost := 0
			round := func() {
				res, err := p.SendStream(spec)
				if err != nil || len(res.OWDs) > spec.K || (tc.loss == 0 && len(res.OWDs) < spec.K) {
					t.Fatalf("stream delivered %d/%d packets, err %v", len(res.OWDs), spec.K, err)
				}
				lost += spec.K - len(res.OWDs)
				if err := p.Idle(100 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5; i++ {
				round() // the first sizes the arena, the rest let the freelists see a stream's peak
			}
			if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
				t.Fatalf("a warmed prober allocates %.1f objects per SendStream+Idle, want 0", allocs)
			}
			if tc.loss > 0 && lost == 0 {
				t.Fatal("the impaired link erased no probe packet; the case measures nothing")
			}
		})
	}
}
