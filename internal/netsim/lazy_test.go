package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// TestSimulatorLayout: a Simulator fills whole cache lines, so its size
// class is line-aligned and the simulators of concurrently running
// shards never share one. One more 8-byte field in Simulator or
// eventq.Queue without re-padding cost a third of fleet throughput (see
// the padding's comment); this makes it cost a test instead.
func TestSimulatorLayout(t *testing.T) {
	if size := unsafe.Sizeof(Simulator{}); size%64 != 0 {
		t.Fatalf("Simulator is %d bytes; re-pad it to a multiple of 64 so adjacent shards' simulators do not share cache lines", size)
	}
}

// TestPacketLayout: a Packet, freelist link included, fits the 80-byte
// size class, so the link that makes the freelist allocation-free costs
// no memory per packet, and a packet costs no more than the fields it
// needs.
func TestPacketLayout(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 80 {
		t.Fatalf("Packet is %d bytes; it must fit the 80-byte size class", size)
	}
}

// tick is the grid every period, phase, delay and read instant of a
// lazyNet sits on, and every transmission time is a multiple of it, so
// completions, arrivals and reads land on the same nanosecond all the
// time and the ticket alone decides their order.
const tick = 100 * Microsecond

// lazyNet is a seeded random network for the lazy ≡ eager property. It
// is built from its seed alone and its traffic is deterministic, so two
// of them with the same seed differ only in eager: a no-op observer on
// every link, which makes every completion an event as it was before
// links settled lazily.
type lazyNet struct {
	sim      *Simulator
	links    []*Link
	routes   [][]*Link
	log      []string // every read, delivery and drop, in order
	marks    int      // reads and deliveries so far: events both modes fire
	deadEnds uint64   // eager only: completions the lazy twin does not fire
	nextID   uint64
}

func (n *lazyNet) logf(format string, args ...any) {
	n.log = append(n.log, fmt.Sprintf("%v ", n.sim.Now())+fmt.Sprintf(format, args...))
}

// read logs what every link shows right now.
func (n *lazyNet) read(where string) {
	n.marks++
	for i, l := range n.links {
		n.logf("%s l%d %+v queued %d", where, i, l.Counters(), l.QueuedBytes())
	}
}

func (n *lazyNet) inject(size int, route []*Link, sink Sink) {
	pkt := n.sim.NewPacket()
	n.nextID++
	pkt.ID, pkt.Size = n.nextID, int32(size)
	n.sim.Inject(pkt, route, sink)
}

func newLazyNet(seed int64, eager bool) *lazyNet {
	rng := rand.New(rand.NewSource(seed))
	n := &lazyNet{sim: NewSimulator()}
	sim := n.sim

	// Capacities and sizes whose transmission times are whole ticks
	// (125 B at 10 Mb/s is one) or, on the last capacity, zero: there a
	// completion ties with its own arrival, and one injected between runs
	// has not happened until the next run fires past it. Buffers are a
	// whole number of the largest packet, so occupancy reaches the limit
	// exactly; delays are in ticks.
	caps := []int64{2e6, 5e6, 10e6, 1e14}
	sizes := []int{125, 250, 625, 1250}
	randImpair := func() Impairment {
		return Impairment{
			Loss:         0.1 * float64(rng.Intn(3)),
			Reorder:      0.15 * float64(rng.Intn(3)),
			ReorderDelay: Time(1+rng.Intn(20)) * tick,
			Seed:         rng.Int63(),
		}
	}
	for i, nl := 0, 3+rng.Intn(3); i < nl; i++ {
		buf := 0
		if rng.Intn(3) > 0 {
			buf = 1250 * (1 + rng.Intn(4))
		}
		l := NewLink(sim, fmt.Sprint("l", i), caps[rng.Intn(len(caps))], Time(rng.Intn(4))*5*tick, buf)
		if rng.Intn(2) == 0 {
			l.Impair(randImpair())
		}
		l.OnDrop(func(pkt *Packet, at Time) { n.logf("drop l%d id %d", i, pkt.ID) })
		if eager {
			l.OnTransmit(func(pkt *Packet, _ Time) {
				if pkt.deadEnd() {
					n.deadEnds++
				}
			})
		}
		n.links = append(n.links, l)
	}

	// Flows: periodic bursts over one to three distinct links. Flow 0 is
	// the observed path — every link in order, a sink logging each
	// delivery — so each link carries sink-bound packets beside the dead
	// ends; flow 1 is one-hop cross traffic on its first link; the rest
	// are random, and a multi-hop nil-sink flow is lazy on its last hop
	// only. Periods come from three values, so flows tie constantly.
	for f, nf := 0, 5+rng.Intn(5); f < nf; f++ {
		perm := rng.Perm(len(n.links))[:1+rng.Intn(3)]
		observed := rng.Intn(4) == 0
		switch f {
		case 0:
			perm, observed = perm[:0], true
			for i := range n.links {
				perm = append(perm, i)
			}
		case 1:
			perm, observed = []int{0}, false
		}
		var route []*Link
		for _, i := range perm {
			route = append(route, n.links[i])
		}
		n.routes = append(n.routes, route)
		var sink Sink
		if observed {
			sink = func(pkt *Packet, at Time) {
				n.marks++
				n.logf("flow %d id %d owd %v", f, pkt.ID, at-pkt.SentAt)
				sim.FreePacket(pkt)
			}
		}
		period := []Time{5, 10, 20}[rng.Intn(3)] * tick
		size, burst := sizes[rng.Intn(len(sizes))], 1+rng.Intn(3)
		var fire func()
		fire = func() {
			for b := 0; b < burst; b++ {
				n.inject(size, route, sink)
			}
			sim.After(period, fire)
		}
		sim.Schedule(Time(rng.Intn(10))*tick, fire)
	}

	// Readers inside plain events: some scheduled up front, holding
	// tickets older than anything in flight when they fire, and one
	// chain that takes each ticket as it goes, so reads fall on both
	// sides of same-instant completions. Epochs re-impair a link mid-run.
	for i := 0; i < 30; i++ {
		sim.Schedule(Time(rng.Intn(2000))*tick, func() { n.read("event") })
	}
	var chain func()
	chain = func() {
		n.read("chain")
		sim.After(Time(1+rng.Intn(40))*tick, chain)
	}
	sim.Schedule(0, chain)
	for i := 0; i < 4; i++ {
		l, cfg := n.links[rng.Intn(len(n.links))], randImpair()
		sim.Schedule(Time(rng.Intn(2000))*tick, func() { l.Impair(cfg) })
	}
	return n
}

// drive runs the network to the horizon in uneven pieces — plain Runs to
// a grid instant, and RunUntils that stop mid-instant, right after some
// later read or delivery — reading every link and injecting a dead-end
// packet from outside the event loop between them.
func (n *lazyNet) drive(seed int64, horizon Time) {
	rng := rand.New(rand.NewSource(seed))
	for n.sim.Now() < horizon {
		if rng.Intn(2) == 0 {
			n.sim.Run(min(horizon, n.sim.Now()+Time(rng.Intn(50))*tick))
		} else {
			target := n.marks + 1 + rng.Intn(30)
			n.sim.RunUntil(func() bool { return n.marks >= target }, horizon)
		}
		n.read("outside")
		n.inject(125*(1+rng.Intn(10)), n.routes[rng.Intn(len(n.routes))], nil)
		n.read("injected")
	}
}

// compareLazyNets requires the twins' transcripts to be identical and
// their event counts to differ by exactly the completions the eager one
// fired for nobody.
func compareLazyNets(t *testing.T, seed int64, lazy, eager *lazyNet) {
	t.Helper()
	for i := 0; i < len(lazy.log) || i < len(eager.log); i++ {
		if i >= len(lazy.log) || i >= len(eager.log) || lazy.log[i] != eager.log[i] {
			t.Fatalf("seed %d: transcripts fork at line %d of %d / %d:\n lazy  %s\n eager %s", seed, i, len(lazy.log), len(eager.log),
				append(lazy.log, "(end)")[i], append(eager.log, "(end)")[i])
		}
	}
	if got := eager.sim.Events() - lazy.sim.Events(); got != eager.deadEnds || got == 0 {
		t.Fatalf("seed %d: eager fired %d events, lazy %d: %d apart, want the %d dead-end completions", seed, eager.sim.Events(), lazy.sim.Events(), got, eager.deadEnds)
	}
}

// TestLazyCompletionEquivalence: settling dead-end completions lazily
// is invisible. On seeded random networks — bounded buffers reached
// exactly, loss and reordering re-configured mid-run, multi-hop routes
// lazy on their last hop only, sink-bound flows sharing every link,
// periods that tie — every Counters() and QueuedBytes() read, inside
// events and between runs that stop mid-instant, every delivery's OWD
// and every drop is what firing each completion as an event gives.
func TestLazyCompletionEquivalence(t *testing.T) {
	const horizon = 200 * Millisecond
	var settled, reordered, lost, dropped uint64
	for seed := int64(1); seed <= 40; seed++ {
		lazy, eager := newLazyNet(seed, false), newLazyNet(seed, true)
		lazy.drive(seed, horizon)
		eager.drive(seed, horizon)
		compareLazyNets(t, seed, lazy, eager)
		settled += eager.deadEnds
		for _, l := range lazy.links {
			c := l.Counters()
			reordered, lost, dropped = reordered+c.Reordered, lost+c.RandLoss, dropped+c.Drops
		}
	}
	// The generator must reach what it claims to cover.
	if settled == 0 || reordered == 0 || lost == 0 || dropped == 0 {
		t.Fatalf("coverage: %d lazy completions, %d reordered, %d lost, %d dropped; want all positive", settled, reordered, lost, dropped)
	}
}

// TestLazyCompletionEquivalenceLockstep is the same property with the
// networks as shards of a Lockstep on several goroutines, read between
// barriers from the advancing goroutine: under -race it also holds that
// a read that settles is ordered against the goroutine that ran the
// shard.
func TestLazyCompletionEquivalenceLockstep(t *testing.T) {
	const shards = 6
	run := func(eager bool) []*lazyNet {
		nets := make([]*lazyNet, shards)
		sims := make([]*Simulator, shards)
		for i := range nets {
			nets[i] = newLazyNet(int64(100+i), eager)
			sims[i] = nets[i].sim
		}
		ls := NewLockstep(3, sims...)
		rng := rand.New(rand.NewSource(7))
		for ls.Now() < 100*Millisecond {
			ls.AdvanceFor(Time(1+rng.Intn(50)) * tick)
			for _, n := range nets {
				n.read("barrier")
			}
		}
		return nets
	}
	lazy, eager := run(false), run(true)
	for i := range lazy {
		compareLazyNets(t, int64(100+i), lazy[i], eager[i])
	}
}

// TestOnTransmitMidRun: an observer registered while lazy records are
// in the ring sees every completion from then on, each as an event at
// its own instant — whether the lane was idle (nothing but dead ends
// queued) or armed for a sink-bound packet behind them.
func TestOnTransmitMidRun(t *testing.T) {
	for _, sinkAt := range []int{-1, 6} {
		sim := NewSimulator()
		link := NewLink(sim, "l", 10_000_000, 0, 0)
		route := []*Link{link}
		delivered := 0
		for i := 0; i < 10; i++ { // 1250 B: done at 1, 2, ... 10 ms
			pkt := &Packet{ID: uint64(i), Size: 1250}
			if i == sinkAt {
				sim.Inject(pkt, route, func(*Packet, Time) { delivered++ })
			} else {
				sim.Inject(pkt, route, nil)
			}
		}
		sim.Run(2500 * Microsecond) // packets 0 and 1 are done
		before := sim.Events()

		var seen []uint64
		link.OnTransmit(func(pkt *Packet, done Time) {
			if done != sim.Now() {
				t.Errorf("sink at %d: packet %d completed at %v, observed at %v", sinkAt, pkt.ID, done, sim.Now())
			}
			seen = append(seen, pkt.ID)
		})
		if got := link.Counters().PktsOut; got != 2 {
			t.Fatalf("sink at %d: %d packets out at 2.5 ms, want 2", sinkAt, got)
		}
		sim.Run(Second)

		if fmt.Sprint(seen) != "[2 3 4 5 6 7 8 9]" {
			t.Errorf("sink at %d: observer saw %v, want every completion after it registered: 2..9", sinkAt, seen)
		}
		if got := sim.Events() - before; got != 8 {
			t.Errorf("sink at %d: %d events after registering, want 8: one per completion, none twice", sinkAt, got)
		}
		if got := link.Counters(); got.PktsOut != 10 || got.Busy != 10*Millisecond || link.QueuedBytes() != 0 || sim.Pending() != 0 {
			t.Errorf("sink at %d: counters %+v, queued %d, pending %d after the run", sinkAt, got, link.QueuedBytes(), sim.Pending())
		}
		if want := max(0, min(1, sinkAt)); delivered != want {
			t.Errorf("sink at %d: %d deliveries, want %d", sinkAt, delivered, want)
		}
	}
}

// TestImpairSettlesUnderOldConfig: completions that precede an Impair
// call draw under the configuration they completed under, even when
// nothing has looked at the link since they were queued. Turning
// reordering off with ten of twenty dead ends transmitted leaves the
// draws of those ten — what an observed link, firing each as it
// happens, counts — and none after.
func TestImpairSettlesUnderOldConfig(t *testing.T) {
	reordered := func(observe bool) uint64 {
		sim := NewSimulator()
		link := NewLink(sim, "l", 10_000_000, 0, 0)
		link.Impair(Impairment{Reorder: 0.5, ReorderDelay: Millisecond, Seed: 5})
		if observe {
			link.OnTransmit(func(*Packet, Time) {})
		}
		for i := 0; i < 20; i++ {
			sim.Inject(&Packet{Size: 1250}, []*Link{link}, nil)
		}
		sim.Run(10*Millisecond + 500*Microsecond)
		link.Impair(Impairment{})
		sim.Run(Second)
		return link.Counters().Reordered
	}
	lazy, eager := reordered(false), reordered(true)
	if lazy != eager || eager == 0 {
		t.Fatalf("reordering removed mid-backlog: unobserved link counts %d reordered, observed link %d; want equal and positive", lazy, eager)
	}
}
