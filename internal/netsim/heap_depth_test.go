package netsim_test

import (
	"testing"
	"time"

	"repro/internal/crosstraffic"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// TestHeapDepthBounded is the structural half of the simulator's speed,
// the half CI hardware can hold: the event heap carries one entry per
// cross-traffic source (its next arrival) and nothing else while only
// cross traffic flows — a link whose packets all dead-end on it has no
// completion anybody waits for, so it holds no entry at all — plus, per
// link a probe stream is crossing, at most two (its first live
// in-service record and the head of its propagation lane) and one for
// the stream in flight — never one per packet. With a heap entry per
// packet a 50 ms propagation delay alone parks rate × 50 ms of them
// there, and a stream its K injections: hundreds on either topology
// below.
func TestHeapDepthBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo experiments.Topology
	}{
		// The fleet tier's shard: one link carries the whole 50 ms.
		{"one-hop shard", experiments.Topology{Hops: 1, TightCap: 24e6, TightUtil: 0.75, SourcesPerHop: 4, Model: crosstraffic.ModelCBR, Seed: 1}},
		{"default 5-hop", experiments.Topology{Seed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.topo.Build()
			links := len(net.Links)
			sources := links * net.Topo.SourcesPerHop
			bound := sources + 2*links + 1 // + the stream's lane

			// Sampled from inside the event loop by a plain periodic event,
			// far finer than any transmission time here, so mid-stream
			// depth is seen as it happens. (An OnTransmit observer would
			// see every transmission, and by observing make each of them
			// an event: the heap measured would not be the one that runs.)
			// The sampler is popped while it fires and counts the others.
			peak := 0
			var sample func()
			sample = func() {
				peak = max(peak, net.Sim.Pending())
				net.Sim.After(10*netsim.Microsecond, sample)
			}
			net.Sim.Schedule(0, sample)

			net.Warmup(3 * netsim.Second)
			if peak != sources {
				t.Fatalf("event heap peaked at %d entries under cross traffic alone; want the %d sources and no link entry", peak, sources)
			}
			p := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
			spec := pathload.StreamSpec{Rate: 3e6, K: 100, L: 375, T: time.Millisecond}
			for i := 0; i < 3; i++ {
				if res, err := p.SendStream(spec); err != nil || len(res.OWDs) != spec.K {
					t.Fatalf("stream delivered %d/%d packets, err %v", len(res.OWDs), spec.K, err)
				}
			}
			if peak > bound {
				t.Fatalf("event heap reached %d entries; want at most %d = %d sources + 2·%d links + 1 stream", peak, bound, sources, links)
			}
			if peak <= sources+1 {
				t.Fatalf("event heap never held more than %d entries mid-stream; the sampling measures nothing", peak)
			}
		})
	}
}
