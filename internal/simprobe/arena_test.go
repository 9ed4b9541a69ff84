package simprobe

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/crosstraffic"
	"repro/internal/netsim"

	pathload "repro"
)

// A refProber is the per-stream collection this package used before the
// stream arena, kept as the tests' reference: every stream gets fresh
// state, packets are told apart by a tag on their Payload, arrivals are
// appended as they come, and a collected flag turns stragglers away. It
// drives the simulator directly, which is all a Sequencer of one does.
type refProber struct {
	sim         *netsim.Simulator
	route       []*netsim.Link
	lossTimeout netsim.Time
	nextID      uint64
}

type refTag struct{ seq int }

// sendStream returns the stream's OWDs in arrival order.
func (r *refProber) sendStream(spec pathload.StreamSpec) []pathload.OWDSample {
	var got []pathload.OWDSample
	collected := false
	arrive := func(pk *netsim.Packet, at netsim.Time) {
		if !collected {
			got = append(got, pathload.OWDSample{Seq: pk.Payload.(*refTag).seq, OWD: (at - pk.SentAt).Duration()})
		}
	}
	start, period := r.sim.Now(), netsim.FromDuration(spec.T)
	deadline := start + netsim.Time(spec.K)*period + r.lossTimeout
	for _, l := range r.route {
		deadline += l.PropDelay() + l.TxTime(spec.L)
	}
	for i := 0; i < spec.K; i++ {
		r.nextID++
		pkt := &netsim.Packet{ID: r.nextID, Size: spec.L, Payload: &refTag{seq: i}}
		r.sim.Schedule(start+netsim.Time(i)*period, func() { r.sim.Inject(pkt, r.route, arrive) })
	}
	r.sim.RunUntil(func() bool { return len(got) == spec.K }, deadline)
	collected = true
	return got
}

// bySeq returns owds sorted by sequence number.
func bySeq(owds []pathload.OWDSample) []pathload.OWDSample {
	out := append([]pathload.OWDSample(nil), owds...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// twinPaths builds the same one-link path twice, once under an arena
// prober and once under the reference.
func twinPaths(build func() (*netsim.Simulator, []*netsim.Link)) (*Prober, *refProber) {
	sim, route := build()
	p := New(sim, route, 0)
	rsim, rroute := build()
	return p, &refProber{sim: rsim, route: rroute, lossTimeout: p.LossTimeout}
}

// TestSeqOrderUnderReorder: OWDs come back sorted by Seq, as
// StreamResult promises, on a link that delivers out of order — and
// they are the same delays arrival-order collection sees, only placed
// where the trend statistics expect them.
func TestSeqOrderUnderReorder(t *testing.T) {
	p, ref := twinPaths(func() (*netsim.Simulator, []*netsim.Link) {
		sim := netsim.NewSimulator()
		link := netsim.NewLink(sim, "l", 10_000_000, 5*netsim.Millisecond, 0)
		link.Impair(netsim.Impairment{Reorder: 0.2, ReorderDelay: 3 * netsim.Millisecond, Seed: 7})
		return sim, []*netsim.Link{link}
	})
	spec := pathload.StreamSpec{Rate: 4e6, K: 100, L: 500, T: time.Millisecond}
	res, err := p.SendStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	arrival := ref.sendStream(spec)
	if sort.SliceIsSorted(arrival, func(i, j int) bool { return arrival[i].Seq < arrival[j].Seq }) {
		t.Fatal("the impaired link delivered in order; the test measures nothing")
	}
	for i := 1; i < len(res.OWDs); i++ {
		if res.OWDs[i].Seq <= res.OWDs[i-1].Seq {
			t.Fatalf("sample %d has seq %d after seq %d", i, res.OWDs[i].Seq, res.OWDs[i-1].Seq)
		}
	}
	if want := bySeq(arrival); !reflect.DeepEqual(res.OWDs, want) {
		t.Fatalf("OWDs differ from arrival-order collection sorted by seq:\n got %v\nwant %v", res.OWDs, want)
	}
}

// TestArenaReuseMatchesFreshStreams: reusing one arena for every stream
// is invisible. Stream 1 times out with most of its packets still
// queued (TestStragglersDoNotWakeNextAwait's setup), so they land while
// stream 2 collects into the same slots; then K grows and shrinks. Every
// stream must return what a fresh per-stream collection returns, at the
// same instant.
func TestArenaReuseMatchesFreshStreams(t *testing.T) {
	p, ref := twinPaths(func() (*netsim.Simulator, []*netsim.Link) {
		sim := netsim.NewSimulator()
		link := netsim.NewLink(sim, "slow", 1_000_000, 5*netsim.Millisecond, 0)
		agg := crosstraffic.NewAggregate(sim, link, 3e5, 5,
			crosstraffic.ModelPoisson, crosstraffic.FixedSize{Bytes: 200}, 3)
		agg.Start()
		return sim, []*netsim.Link{link}
	})
	for i, step := range []struct {
		k           int
		rate        float64
		lossTimeout netsim.Time
	}{
		{k: 10, rate: 8e6, lossTimeout: 5 * netsim.Millisecond}, // gives up with stragglers in flight
		{k: 10, rate: 8e6, lossTimeout: netsim.Second},          // collects while they land
		{k: 100, rate: 5e5, lossTimeout: netsim.Second},
		{k: 160, rate: 5e5, lossTimeout: netsim.Second}, // the arena regrows
		{k: 40, rate: 5e5, lossTimeout: netsim.Second},  // and is reused short
	} {
		const l = 1000
		spec := pathload.StreamSpec{Rate: step.rate, K: step.k, L: l, T: time.Duration(l * 8 / step.rate * 1e9), Index: i}
		p.LossTimeout, ref.lossTimeout = step.lossTimeout, step.lossTimeout
		res, err := p.SendStream(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := bySeq(ref.sendStream(spec))
		if i == 0 && len(want) >= step.k {
			t.Fatal("stream 0 lost nothing; no straggler tests the reuse")
		}
		if i > 0 && len(want) != step.k {
			t.Fatalf("stream %d: the reference collected %d/%d packets", i, len(want), step.k)
		}
		if !reflect.DeepEqual(res.OWDs, want) {
			t.Fatalf("stream %d (K=%d) differs from a fresh per-stream collection:\n got %v\nwant %v", i, step.k, res.OWDs, want)
		}
		if p.st.sim.Now() != ref.sim.Now() {
			t.Fatalf("stream %d returned at %v, the reference at %v", i, p.st.sim.Now(), ref.sim.Now())
		}
	}
}

// TestArenaSiblingsKeepTheirOwnRange: two probers on one Sequencer take
// turns setting streams up while the other's is still in flight, so
// their packet-ID ranges interleave. Each stream must still collect
// exactly its own K packets: on disjoint quiet links that means every
// OWD is its route's base delay.
func TestArenaSiblingsKeepTheirOwnRange(t *testing.T) {
	const k, l, streams = 10, 1000, 3
	sim := netsim.NewSimulator()
	seq := NewSequencer(sim)
	links := []*netsim.Link{
		netsim.NewLink(sim, "a", 100_000_000, 5*netsim.Millisecond, 0),
		netsim.NewLink(sim, "b", 100_000_000, 9*netsim.Millisecond, 0),
	}
	ids := make([][]uint64, len(links)) // packet IDs in transmission order, per link
	probers := make([]*Prober, len(links))
	for i, link := range links {
		i := i
		link.OnTransmit(func(pkt *netsim.Packet, _ netsim.Time) { ids[i] = append(ids[i], pkt.ID) })
		probers[i] = seq.NewProber([]*netsim.Link{link}, 0)
	}

	var wg sync.WaitGroup
	for i, p := range probers {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Retire()
			base := p.baseDelay(l).Duration()
			for s := 0; s < streams; s++ {
				res, err := p.SendStream(pathload.StreamSpec{Rate: 8e6, K: k, L: l, T: time.Millisecond, Index: s})
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.OWDs) != k {
					t.Errorf("seat %d stream %d collected %d packets, want %d", i, s, len(res.OWDs), k)
				}
				for j, o := range res.OWDs {
					if o.Seq != j || o.OWD != base {
						t.Errorf("seat %d stream %d sample %d = %+v, want seq %d at the base delay %v", i, s, j, o, j, base)
					}
				}
			}
		}()
	}
	waitWithWatchdog(t, &wg)

	// Seat 0 sets up first each time, so it owns IDs 1–10, 21–30, 41–50
	// and seat 1 the ranges in between.
	for i := range links {
		var want []uint64
		for s := 0; s < streams; s++ {
			for j := 0; j < k; j++ {
				want = append(want, uint64((2*s+i)*k+j+1))
			}
		}
		if !reflect.DeepEqual(ids[i], want) {
			t.Errorf("seat %d sent IDs %v, want the interleaved ranges %v", i, ids[i], want)
		}
	}
}

// TestStragglersDoNotWakeIdle: between streams the arena matches
// nothing. Seat 0's stream times out and the rest of its packets land
// during the Idle that follows; the last of them completes the old
// stream's count and must not cut the Idle short. A lone seat's Idle
// never looks at wakes, so a sibling keeps an armed await open
// throughout.
func TestStragglersDoNotWakeIdle(t *testing.T) {
	sim := netsim.NewSimulator()
	seq := NewSequencer(sim)
	slow := seq.NewProber([]*netsim.Link{netsim.NewLink(sim, "slow", 1_000_000, 5*netsim.Millisecond, 0)}, 0)
	slow.LossTimeout = 5 * netsim.Millisecond
	sibling := seq.NewProber([]*netsim.Link{netsim.NewLink(sim, "fast", 100_000_000, 0, 0)}, 0)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer slow.Retire()
		res, err := slow.SendStream(pathload.StreamSpec{Rate: 8e6, K: 10, L: 1000, T: time.Millisecond})
		if err != nil {
			t.Error(err)
			return
		}
		if n := len(res.OWDs); n == 0 || n >= 5 {
			t.Errorf("the stream collected %d/10 packets, want a few: the rest must still be in flight", n)
		}
		before := sim.Now()
		if err := slow.Idle(time.Second); err != nil { // the queue drains in 80 ms
			t.Error(err)
		}
		if got := sim.Now() - before; got != netsim.Second {
			t.Errorf("Idle advanced %v, want 1s", got)
		}
	}()
	go func() {
		defer wg.Done()
		defer sibling.Retire()
		if _, err := sibling.SendStream(pathload.StreamSpec{Rate: 4e6, K: 100, L: 1000, T: 2 * time.Millisecond}); err != nil {
			t.Error(err)
		}
	}()
	waitWithWatchdog(t, &wg)
}

// TestArenaAcceptsItsOwnPacketsOnce pins arrive's three rules on a
// hand-fed arena: an ID outside the stream's range is a straggler, a
// filled slot is a duplicate, and only the K-th accepted packet wakes
// the seat.
func TestArenaAcceptsItsOwnPacketsOnce(t *testing.T) {
	sim := netsim.NewSimulator()
	p := New(sim, []*netsim.Link{netsim.NewLink(sim, "l", 1_000_000, 0, 0)}, 0)
	p.st.open(100, 3, 500)
	for _, step := range []struct {
		id        uint64
		got       int
		wakes     bool
		rejection string
	}{
		{id: 99, got: 0, rejection: "below the range"},
		{id: 103, got: 0, rejection: "above the range"},
		{id: 101, got: 1},
		{id: 101, got: 1, rejection: "a duplicate"},
		{id: 100, got: 2},
		{id: 102, got: 3, wakes: true},
		{id: 102, got: 3, rejection: "a duplicate of the last"},
	} {
		p.slot.woken = false
		p.st.arrive(&netsim.Packet{ID: step.id}, 7)
		if p.st.col.Len() != step.got || p.slot.woken != step.wakes {
			t.Fatalf("after ID %d (%s): got %d woken %v, want %d and %v", step.id, step.rejection, p.st.col.Len(), p.slot.woken, step.got, step.wakes)
		}
	}
	if owds := p.st.collect(0); len(owds) != 3 || owds[2] != (pathload.OWDSample{Seq: 2, OWD: 7}) {
		t.Fatalf("collected %v, want three samples of 7ns", owds)
	}
	p.st.arrive(&netsim.Packet{ID: 100}, 9) // in the old range, after collection
	if p.st.col.Len() != 3 || p.slot.woken {
		t.Fatalf("a straggler after collect counted: got %d woken %v", p.st.col.Len(), p.slot.woken)
	}
}
