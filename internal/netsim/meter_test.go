package netsim_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/crosstraffic"
	"repro/internal/netsim"
)

// TestWindowedReadings checks window boundaries and utilization math
// against a deterministic CBR load.
func TestWindowedReadings(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	// 500 kB/s of 1000-byte packets = 40% utilization.
	crosstraffic.NewSource(sim, link,
		crosstraffic.Constant{M: 2 * netsim.Millisecond},
		crosstraffic.FixedSize{Bytes: 1000}, 1).Start()

	meter := netsim.NewMeter(link)
	for i := 0; i < 3; i++ {
		start := sim.Now()
		sim.RunFor(10 * netsim.Second)
		r := meter.Read()
		if r.Start != start || r.End != start+10*netsim.Second {
			t.Errorf("reading %d spans [%v, %v], want 10s from %v", i, r.Start, r.End, start)
		}
		if math.Abs(r.Util-0.4) > 0.01 {
			t.Errorf("reading %d utilization %v, want ≈0.40", i, r.Util)
		}
		if math.Abs(r.Avail-6e6) > 0.1e6 {
			t.Errorf("reading %d avail %v, want ≈6 Mb/s", i, r.Avail)
		}
		if rate := float64(r.Bytes) * 8 / 10; math.Abs(rate-4e6) > 0.1e6 {
			t.Errorf("reading %d rate %v, want ≈4 Mb/s", i, rate)
		}
	}
	// A second read in the same instant is an empty window that leaves
	// the next one where it was.
	if r := meter.Read(); r.Start != r.End || r.Bytes != 0 || r.Util != 0 {
		t.Errorf("same-instant read %+v, want an empty window", r)
	}
	at := sim.Now()
	sim.RunFor(netsim.Second)
	if r := meter.Read(); r.Start != at {
		t.Errorf("window after an empty read starts at %v, want %v", r.Start, at)
	}
}

// TestIdleLinkReadsFullAvail: an idle link reports avail equal to
// capacity.
func TestIdleLinkReadsFullAvail(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 42_000_000, 0, 0)
	meter := netsim.NewMeter(link)
	for i := 0; i < 3; i++ {
		sim.RunFor(netsim.Second)
		if r := meter.Read(); r.Util != 0 || r.Avail != 42e6 {
			t.Fatalf("idle link reading %+v", r)
		}
	}
}

// TestMeterReadsDoNotPerturb: reading ground truth must not change what
// it reads. Links under heavy-tailed cross traffic carry a probe
// stream; one twin runs straight through, the other stops at seeded
// random instants — mid-stream, between a completion and its lazy
// settling — and reads every link's meter. Both must fire the same
// events, end with the same counters and give the probes the same
// one-way delays: no reader schedules an event, and counting never
// makes a link eager.
func TestMeterReadsDoNotPerturb(t *testing.T) {
	type outcome struct {
		events uint64
		ctrs   []netsim.LinkCounters
		owds   []netsim.Time
	}
	run := func(seed int64, read bool) outcome {
		sim := netsim.NewSimulator()
		var links []*netsim.Link
		for i, capacity := range []int64{100_000_000, 10_000_000, 45_000_000} {
			l := netsim.NewLink(sim, "l", capacity, 5*netsim.Millisecond, 200_000)
			crosstraffic.NewAggregate(sim, l, 0.6*float64(capacity), 8,
				crosstraffic.ModelPareto, crosstraffic.Trimodal{}, seed+int64(i)).Start()
			links = append(links, l)
		}
		var owds []netsim.Time
		sink := func(pkt *netsim.Packet, at netsim.Time) { owds = append(owds, at-pkt.SentAt) }
		for k := 0; k < 200; k++ {
			sim.Schedule(netsim.Second+netsim.Time(k)*200*netsim.Microsecond, func() {
				pkt := sim.NewPacket()
				pkt.Size = 800
				sim.Inject(pkt, links, sink)
			})
		}
		end := 3 * netsim.Second
		if read {
			meters := make([]netsim.Meter, len(links))
			for i, l := range links {
				meters[i] = netsim.NewMeter(l)
			}
			rng := rand.New(rand.NewSource(seed))
			for sim.Now() < end {
				sim.Run(min(end, sim.Now()+netsim.Time(rng.Int63n(int64(5*netsim.Millisecond)))))
				for i := range meters {
					meters[i].Read()
				}
			}
		}
		sim.Run(end)
		o := outcome{events: sim.Events(), owds: owds}
		for _, l := range links {
			o.ctrs = append(o.ctrs, l.Counters())
		}
		return o
	}
	for seed := int64(1); seed <= 5; seed++ {
		plain, read := run(seed, false), run(seed, true)
		if plain.events != read.events {
			t.Errorf("seed %d: %d events with reads, %d without", seed, read.events, plain.events)
		}
		if !slices.Equal(plain.ctrs, read.ctrs) {
			t.Errorf("seed %d: counters with reads %+v, without %+v", seed, read.ctrs, plain.ctrs)
		}
		if len(plain.owds) != 200 {
			t.Errorf("seed %d: %d of 200 probes delivered", seed, len(plain.owds))
		}
		if !slices.Equal(plain.owds, read.owds) {
			t.Errorf("seed %d: reads changed the probes' one-way delays", seed)
		}
	}
}
