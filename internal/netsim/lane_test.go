package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
)

// impairedTranscript drives a reordering, lossy last-hop link with a
// mix of observed packets (a sink records each delivery) and nil-sink
// cross traffic, and returns the link's counters and an FNV-1a hash
// over every observed (ID, arrival time).
func impairedTranscript() (LinkCounters, uint64) {
	sim := NewSimulator()
	link := NewLink(sim, "l", 10_000_000, 5*Millisecond, 0)
	link.Impair(Impairment{Loss: 0.05, Reorder: 0.05, ReorderDelay: 3 * Millisecond, Seed: 42})
	route := []*Link{link}

	h := fnv.New64a()
	sink := func(pkt *Packet, at Time) {
		h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, pkt.ID), uint64(at)))
		sim.FreePacket(pkt)
	}
	for i := 0; i < 6000; i++ {
		i := i
		sim.Schedule(Time(i)*300*Microsecond, func() {
			pkt := sim.NewPacket()
			pkt.ID = uint64(i + 1)
			pkt.Size = int32(200 + 37*(i%11))
			if i%3 == 0 {
				sim.Inject(pkt, route, sink)
			} else {
				sim.Inject(pkt, route, nil)
			}
		})
	}
	sim.Run(3 * Second)
	return link.Counters(), h.Sum64()
}

// TestImpairedLinkPinned: tickets and dead-end elision are invisible to
// an impaired link. The reorder draw is taken for every transmitted
// packet, elided or not, so the link's private RNG stream, its
// Reordered / RandLoss counters and every observed delivery time are
// those of the per-packet scheduler this pin was captured from.
func TestImpairedLinkPinned(t *testing.T) {
	ctr, h := impairedTranscript()
	if ctr.PktsOut != 5701 || ctr.RandLoss != 299 || ctr.Reordered != 314 {
		t.Errorf("counters %+v, want PktsOut 5701, RandLoss 299, Reordered 314", ctr)
	}
	if want := uint64(0xc992b0ac294bc33c); h != want {
		t.Errorf("delivery transcript hash %#x, want %#x", h, want)
	}
}

// TestDeadEndElisionLastHopOnly: a nil-sink packet is freed where it
// finishes transmission on the last link of its route and nowhere
// earlier — it still crosses every link it was routed over, and the
// only event saved is the delivery nobody observes.
func TestDeadEndElisionLastHopOnly(t *testing.T) {
	sim := NewSimulator()
	first := NewLink(sim, "first", 10_000_000, 5*Millisecond, 0)
	last := NewLink(sim, "last", 10_000_000, 5*Millisecond, 0)
	const n = 200
	var tick func()
	sent := 0
	tick = func() {
		pkt := sim.NewPacket()
		pkt.Size = 500
		sim.Inject(pkt, []*Link{first, last}, nil)
		if sent++; sent < n {
			sim.After(Millisecond, tick)
		}
	}
	sim.Schedule(0, tick)
	sim.Run(Second)

	if a, b := first.Counters(), last.Counters(); a.PktsOut != n || b.PktsIn != n || b.PktsOut != n {
		t.Fatalf("of %d nil-sink packets routed over both links, the first sent %d on and the last saw %d in, %d out", n, a.PktsOut, b.PktsIn, b.PktsOut)
	}
	// Per packet: its injection, a completion and an arrival on the first
	// link, which the last link waits for — and nothing on the last: no
	// arrival after it, and nobody waits for its completion there either,
	// so the link settled it when Counters looked (800 while that
	// completion was an event).
	if got := sim.Events(); got != 3*n {
		t.Errorf("%d events for %d packets, want %d: the last hop's completion and delivery are not events, everything before them is", got, n, 3*n)
	}
	if sim.Pending() != 0 {
		t.Errorf("%d events still pending on an idle network", sim.Pending())
	}
	// Freed where they ended, the packets recirculate: the freelist holds
	// the eleven that were in flight at once (1 ms apart, 10.8 ms end to
	// end), not one per injection.
	got := 0
	for pkt := sim.pktFree; pkt != nil; pkt = pkt.next {
		got++
	}
	if got == 0 || got > 11 {
		t.Errorf("freelist holds %d packets after %d dead-end deliveries, want 1..11", got, n)
	}
}

// chunks counts the chunks a ring holds, in use and spare.
func chunks[T any](r *ring[T]) int {
	n := 0
	for c := r.head; c != nil; c = c.next {
		n++
	}
	for c := r.spare; c != nil; c = c.next {
		n++
	}
	return n
}

// TestRingFIFOAcrossGrowth: the chunked ring hands back what it was
// given, in order, while its contents span chunks from a head mid-chunk
// and new peaks add chunks under them, and it never holds more chunks
// than its peak backlog needs from the worst starting slot.
func TestRingFIFOAcrossGrowth(t *testing.T) {
	var r ring[int]
	next, want, peak := 0, 0, 0
	pop := func() {
		if *r.peek() != want {
			t.Fatalf("peek %d, want %d", *r.peek(), want)
		}
		if got := r.pop(); got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
		want++
	}
	// Backlogs of 3, 5, 9, ... each pushed from a head the drain before
	// left mid-chunk, so every new peak links chunks behind a partly
	// drained one.
	for backlog := 3; backlog <= 300; backlog = 2*backlog - 1 {
		for r.len() < backlog {
			r.push(next)
			next++
		}
		peak = max(peak, r.len())
		if n, limit := chunks(&r), (peak+ringChunk-1)/ringChunk+1; n > limit {
			t.Fatalf("%d chunks at peak backlog %d; want at most %d, spares included", n, peak, limit)
		}
		for r.len() > backlog/2 {
			pop()
		}
	}
	for r.len() > 0 {
		pop()
	}
	if want != next {
		t.Fatalf("popped %d of %d pushed", want, next)
	}
}

// TestRingRefillAllocationFree: a ring drained and refilled to the
// peak it has held allocates nothing, and one element beyond that peak
// allocates exactly one chunk, copying nothing already held.
func TestRingRefillAllocationFree(t *testing.T) {
	const peak = 3 * ringChunk
	var r ring[txRec]
	fill := func(n int) {
		for r.len() < n {
			r.push(txRec{seq: uint64(r.len())})
		}
	}
	drain := func() {
		for r.len() > 0 {
			r.pop()
		}
	}
	fill(peak)
	drain()
	if allocs := testing.AllocsPerRun(10, func() { fill(peak); drain() }); allocs != 0 {
		t.Fatalf("refilling to the peak of %d allocates %v objects, want 0", peak, allocs)
	}
	fill(peak)
	oldest := r.peek()
	// One push, counted the way AllocsPerRun counts, without its warm-up
	// call, which would take the new chunk first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.push(txRec{})
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 1 {
		t.Fatalf("one element beyond the peak allocates %d objects, want 1 chunk", allocs)
	}
	if r.peek() != oldest || r.peek().seq != 0 {
		t.Fatal("growing the ring moved the elements it held")
	}
}
