package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTimeConversions checks the unit helpers.
func TestTimeConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("1500ms = %v s, want 1.5", got)
	}
	if got := FromSeconds(0.25); got != 250*Millisecond {
		t.Errorf("FromSeconds(0.25) = %v, want 250ms", got)
	}
	if got := FromSeconds(2.5).Duration().Seconds(); got != 2.5 {
		t.Errorf("round trip through time.Duration = %v, want 2.5", got)
	}
}

// TestSimulatorAdvancesToRequestedTime checks that Run always lands on
// the requested time, even with an empty queue.
func TestSimulatorAdvancesToRequestedTime(t *testing.T) {
	sim := NewSimulator()
	sim.Run(5 * Second)
	if sim.Now() != 5*Second {
		t.Fatalf("Now = %v after Run(5s), want 5s", sim.Now())
	}
	sim.RunFor(Second)
	if sim.Now() != 6*Second {
		t.Fatalf("Now = %v after RunFor(1s), want 6s", sim.Now())
	}
}

// TestSimulatorExecutesInOrder schedules out of order and checks
// execution order and timestamps.
func TestSimulatorExecutesInOrder(t *testing.T) {
	sim := NewSimulator()
	var order []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		sim.Schedule(at, func() {
			if sim.Now() != at {
				t.Errorf("callback at %v ran at %v", at, sim.Now())
			}
			order = append(order, at)
		})
	}
	sim.Run(100)
	if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
		t.Fatalf("execution order %v", order)
	}
}

// TestSchedulePastPanics: time travel is a bug, not a feature.
func TestSchedulePastPanics(t *testing.T) {
	sim := NewSimulator()
	sim.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	sim.Schedule(5, func() {})
}

// TestRunUntil checks early exit on condition.
func TestRunUntil(t *testing.T) {
	sim := NewSimulator()
	hits := 0
	for i := 1; i <= 10; i++ {
		sim.Schedule(Time(i)*Second, func() { hits++ })
	}
	ok := sim.RunUntil(func() bool { return hits == 3 }, 100*Second)
	if !ok || hits != 3 || sim.Now() != 3*Second {
		t.Fatalf("RunUntil: ok=%v hits=%d now=%v, want true,3,3s", ok, hits, sim.Now())
	}
	ok = sim.RunUntil(func() bool { return hits == 100 }, 20*Second)
	if ok || sim.Now() != 20*Second {
		t.Fatalf("RunUntil unreachable cond: ok=%v now=%v, want false,20s", ok, sim.Now())
	}
}

// TestLinkExactServiceTime checks store-and-forward timing on an idle
// link: delivery = arrival + transmission + propagation.
func TestLinkExactServiceTime(t *testing.T) {
	sim := NewSimulator()
	link := NewLink(sim, "l", 8_000_000, 10*Millisecond, 0) // 1 byte/µs
	var deliveredAt Time
	sim.Schedule(Second, func() {
		sim.Inject(&Packet{Size: 1000}, []*Link{link}, func(_ *Packet, at Time) {
			deliveredAt = at
		})
	})
	sim.Run(2 * Second)
	want := Second + 1000*Microsecond + 10*Millisecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

// TestLinkQueueingDelay checks that back-to-back packets queue: the
// second packet waits for the first's transmission.
func TestLinkQueueingDelay(t *testing.T) {
	sim := NewSimulator()
	link := NewLink(sim, "l", 8_000_000, 0, 0)
	var arrivals []Time
	sink := func(_ *Packet, at Time) { arrivals = append(arrivals, at) }
	sim.Schedule(0, func() {
		sim.Inject(&Packet{Size: 1000}, []*Link{link}, sink)
		sim.Inject(&Packet{Size: 1000}, []*Link{link}, sink)
	})
	sim.Run(Second)
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	if arrivals[0] != 1000*Microsecond || arrivals[1] != 2000*Microsecond {
		t.Fatalf("arrivals %v, want [1ms, 2ms]", arrivals)
	}
}

// TestLinkDropTail checks the buffer limit: a third packet that does
// not fit is dropped, counted, and reported to observers.
func TestLinkDropTail(t *testing.T) {
	sim := NewSimulator()
	link := NewLink(sim, "l", 8_000_000, 0, 2000)
	delivered, dropped := 0, 0
	link.OnDrop(func(*Packet, Time) { dropped++ })
	sink := func(*Packet, Time) { delivered++ }
	sim.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			sim.Inject(&Packet{Size: 1000}, []*Link{link}, sink)
		}
	})
	sim.Run(Second)
	if delivered != 2 || dropped != 1 {
		t.Fatalf("delivered %d dropped %d, want 2 and 1", delivered, dropped)
	}
	c := link.Counters()
	if c.Drops != 1 || c.PktsOut != 2 || c.PktsIn != 3 {
		t.Fatalf("counters %+v", c)
	}
}

// TestLinkFIFONoReordering is the property test: any arrival pattern
// through a link preserves order and conserves packets.
func TestLinkFIFONoReordering(t *testing.T) {
	f := func(sizes []uint16, gaps []uint32, seed int64) bool {
		if len(sizes) == 0 {
			return true
		}
		sim := NewSimulator()
		rng := rand.New(rand.NewSource(seed))
		link := NewLink(sim, "l", 1_000_000+rng.Int63n(100_000_000), Time(rng.Int63n(int64(10*Millisecond))), 0)
		var got []uint64
		at := Time(0)
		for i, sz := range sizes {
			size := int(sz)%1500 + 40
			if i < len(gaps) {
				at += Time(gaps[i] % uint32(Millisecond))
			}
			id := uint64(i)
			pkt := &Packet{ID: id, Size: size}
			sim.Schedule(at, func() {
				sim.Inject(pkt, []*Link{link}, func(p *Packet, _ Time) { got = append(got, p.ID) })
			})
		}
		sim.Run(at + Time(10*Second))
		if len(got) != len(sizes) {
			return false
		}
		for i, id := range got {
			if id != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestByteConservation is the property test: after the link fully
// drains, every injected byte was either transmitted or dropped, and
// nothing remains queued.
func TestByteConservation(t *testing.T) {
	f := func(sizes []uint16, buf uint16) bool {
		sim := NewSimulator()
		link := NewLink(sim, "l", 5_000_000, Millisecond, int(buf)+100)
		var in uint64
		at := Time(0)
		for i, sz := range sizes {
			size := int(sz)%1500 + 40
			in += uint64(size)
			at += Time(i * int(Microsecond) * 50)
			pkt := &Packet{Size: size}
			sim.Schedule(at, func() { sim.Inject(pkt, []*Link{link}, nil) })
		}
		sim.Run(at + 30*Second) // enough to drain everything
		c := link.Counters()
		return c.BytesOut+c.DropBytes == in &&
			c.PktsIn == c.PktsOut+c.Drops &&
			link.QueuedBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestUtilizationAccounting checks busy-time accounting against an
// exactly half-loaded link.
func TestUtilizationAccounting(t *testing.T) {
	sim := NewSimulator()
	link := NewLink(sim, "l", 8_000_000, 0, 0) // 1000B = 1ms
	before := link.Counters()
	for i := 0; i < 500; i++ {
		at := Time(i) * 2 * Millisecond
		pkt := &Packet{Size: 1000}
		sim.Schedule(at, func() { sim.Inject(pkt, []*Link{link}, nil) })
	}
	sim.Run(Second)
	util := Utilization(before, link.Counters(), Second-0)
	if util < 0.49 || util > 0.51 {
		t.Fatalf("utilization %v, want ≈0.5", util)
	}
}

// TestTxTime checks serialization time arithmetic.
func TestTxTime(t *testing.T) {
	sim := NewSimulator()
	link := NewLink(sim, "l", 10_000_000, 0, 0)
	if got := link.TxTime(1250); got != 1*Millisecond {
		t.Fatalf("TxTime(1250B @10Mb/s) = %v, want 1ms", got)
	}
}

// TestMultiHopDelivery checks a packet crossing three links
// accumulates all three transmission and propagation delays.
func TestMultiHopDelivery(t *testing.T) {
	sim := NewSimulator()
	var route []*Link
	for i := 0; i < 3; i++ {
		route = append(route, NewLink(sim, "l", 8_000_000, 5*Millisecond, 0))
	}
	var at Time
	sim.Schedule(0, func() {
		sim.Inject(&Packet{Size: 800}, route, func(_ *Packet, t Time) { at = t })
	})
	sim.Run(Second)
	want := 3 * (800*Microsecond + 5*Millisecond)
	if at != want {
		t.Fatalf("3-hop delivery at %v, want %v", at, want)
	}
}

// TestEmptyRouteDeliversImmediately documents the degenerate case.
func TestEmptyRouteDeliversImmediately(t *testing.T) {
	sim := NewSimulator()
	delivered := false
	sim.Inject(&Packet{Size: 100}, nil, func(*Packet, Time) { delivered = true })
	if !delivered {
		t.Fatal("empty-route packet not delivered synchronously")
	}
}

// TestLinkValidation checks constructor panics.
func TestLinkValidation(t *testing.T) {
	sim := NewSimulator()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero capacity", func() { NewLink(sim, "l", 0, 0, 0) }},
		{"negative prop", func() { NewLink(sim, "l", 1, -1, 0) }},
		{"negative buffer", func() { NewLink(sim, "l", 1, 0, -1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}
