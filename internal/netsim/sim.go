// Package netsim is a deterministic discrete-event network simulator.
//
// It models a network as store-and-forward links with FIFO drop-tail
// queues, the service discipline assumed by the SLoPS analysis (Jain &
// Dovrolis, SIGCOMM 2002). Packets carry an explicit route (a sequence
// of links) and a sink callback: path traffic crosses its route to a
// sink, while cross traffic enters one link with a nil sink, so the two
// share links naturally.
//
// The event queue holds lane heads, not packets. A FIFO link stage
// (transmission, propagation) and a periodic probe stream each have
// many events outstanding of which only the oldest can fire next, so
// each is a lane of the event queue: it takes an order ticket per event
// where it would have called Schedule (Reserve) and enqueues only its
// head (ScheduleReserved), which arms the next as it fires. Order is
// (time, ticket) and nothing else, tickets are taken at the same points
// as before, and a lane's events are sorted by both — so every event
// fires exactly where one queue entry per packet would have put it (see
// package eventq), while the queue stays at sources + 2·links + streams
// entries instead of growing with rate × propagation delay.
//
// An event is something somebody waits for. A nil-sink packet is freed
// where it finishes transmission on its last link — a delivery nobody
// observes is not an event — and that completion is not one either
// unless the link has an OnTransmit observer: it changes only the
// link's own counters, queue occupancy and reorder draws, so the link
// keeps its record out of the queue (ticket taken all the same) and
// settles it before anything next reads or changes that state. The
// simulator's position in the event order is (now, ticket): the ticket
// of the event being fired, or, once a run has fired everything due by
// now, the next one to be issued. Settle-before-read is exact because
//
//  1. a completion's event would have fired before the reader's if and
//     only if its (done, ticket) precedes the position, which is what
//     settle tests, and a link's completions are sorted by both;
//  2. what a completion changes is private to its link, and every path
//     to it — an arrival's loss draw and buffer check, a live
//     completion, Counters, QueuedBytes, Impair — settles first;
//  3. the ticket was taken where Schedule would have been called, so
//     every event that does fire keeps its place;
//  4. so each reader sees the link as firing those events would have
//     left it, and nobody sees it in between.
//
// Events() therefore counts fewer events per packet than a per-packet
// scheduler would: on a one-hop shard, cross traffic costs one event
// per packet, the source's tick. TestLazyCompletionEquivalence holds
// the argument as a property against links forced to fire every
// completion.
//
// The simulator is single-threaded and all randomness is injected by
// the caller, so simulations are reproducible bit-for-bit. Time is
// virtual: probe timing is immune to host GC pauses and scheduler
// jitter, which is what makes microsecond-scale probing measurable in
// Go at all (the real-network prober in internal/udprobe is the only
// component exposed to wall clocks).
package netsim

import (
	"fmt"

	"repro/internal/eventq"
)

// A Simulator owns virtual time and the event queue. Create one with
// NewSimulator. All network objects attached to a simulator must be
// driven only from its event loop or between Run calls.
type Simulator struct {
	q   eventq.Queue
	now Time
	// ticket, with now, is the simulator's position in the event order:
	// the ticket of the event being fired, or — once Run / RunUntil has
	// fired everything due by now — the next ticket to be issued, which
	// every ticket taken so far precedes. See passed.
	ticket uint64
	events uint64
	// pktFree heads the intrusive list (linked through Packet.next) of
	// packets allocated by NewPacket whose ownership returned to the
	// simulator (nil-sink delivery, drop); see FreePacket.
	pktFree *Packet
	// Padding to 640 bytes (the queue's 65 bucket heads are most of
	// it), a size class whose objects start on cache lines, so no two
	// simulators share one. Shards of a fleet are allocated back to back
	// and run on different cores; when a simulator ended mid-line (104
	// bytes, the 112-byte class) neighbours' hot fields met on a line
	// and the workers fought over it. fleet_shards on the 2-vCPU host:
	// 96 B (before ticket) 690 ops/s, 104 B 475, 128 B 700; pinned to
	// one CPU both layouts gave 378, so it was false sharing and not the
	// code. TestSimulatorLayout fails when a new field undoes this.
	_ [32]byte
}

// NewSimulator returns a simulator with time set to zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Events returns the total number of events executed so far, a useful
// cost metric for benchmarks. What nobody waits for is not an event: a
// nil-sink packet's delivery from its last link, and its completion
// there unless the link is observed (see the package comment).
func (s *Simulator) Events() uint64 { return s.events }

// Schedule runs fn at the given absolute simulated time. Scheduling in
// the past panics: it would make the event order ill-defined. The
// returned handle is a value; keeping it past the event's firing is
// safe (it goes stale rather than aliasing a recycled event).
func (s *Simulator) Schedule(at Time, fn func()) eventq.Handle {
	s.mustNotBePast(at)
	return s.q.Schedule(int64(at), fn)
}

func (s *Simulator) mustNotBePast(at Time) {
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, s.now))
	}
}

// Reserve takes the next n scheduling-order tickets and returns the
// first, for a lane (see the package comment): events enqueued under
// them later fire where n Schedule calls made now would have put them.
func (s *Simulator) Reserve(n int) uint64 { return s.q.Reserve(n) }

// ScheduleReserved is Schedule under a ticket from Reserve.
func (s *Simulator) ScheduleReserved(at Time, ticket uint64, fn func()) eventq.Handle {
	s.mustNotBePast(at)
	return s.q.ScheduleReserved(int64(at), ticket, fn)
}

// After runs fn after duration d of simulated time.
func (s *Simulator) After(d Time, fn func()) eventq.Handle {
	return s.Schedule(s.now+d, fn)
}

// Cancel removes a pending event. It reports whether the event was
// still pending; stale and zero handles report false.
func (s *Simulator) Cancel(h eventq.Handle) bool { return s.q.Cancel(h) }

// passed reports whether an event keyed (at, ticket) would have fired
// before the simulator's current position had it been in the queue: the
// test a link applies to the completions it keeps out of it (see
// Link.settle). Nothing at the position itself has passed: inside an
// event that is the event, between runs a ticket not yet issued.
func (s *Simulator) passed(at Time, ticket uint64) bool {
	return at < s.now || (at == s.now && ticket < s.ticket)
}

// drained records that every event due by t has fired: time advances to
// t, and the position moves past every ticket issued so far. A t behind
// now (a RunUntil that stopped mid-instant, then a shorter Run) says
// nothing about now, and is ignored.
func (s *Simulator) drained(t Time) {
	if t >= s.now {
		s.now, s.ticket = t, s.q.Reserve(0)
	}
}

// step fires the earliest event if it is due by limit, and reports
// whether it did: the one event-loop body under Run and RunUntil.
func (s *Simulator) step(limit Time) bool {
	at, ok := s.q.PeekTime()
	if !ok || Time(at) > limit {
		return false
	}
	s.now, s.ticket = Time(at), s.q.PeekTicket()
	e := s.q.Pop()
	s.events++
	e.Fire()
	s.q.Recycle(e)
	return true
}

// Run executes events until the given absolute time. On return, Now()
// equals until, even if the queue drained earlier: virtual time always
// advances to the requested point so that idle periods pass correctly.
func (s *Simulator) Run(until Time) {
	for s.step(until) {
	}
	s.drained(until)
}

// RunFor executes events for duration d of simulated time.
func (s *Simulator) RunFor(d Time) { s.Run(s.now + d) }

// RunUntil executes events until cond reports true or the absolute
// deadline passes, whichever is first. cond is evaluated after each
// event. It reports whether cond was met.
func (s *Simulator) RunUntil(cond func() bool, deadline Time) bool {
	if cond() {
		return true
	}
	for s.step(deadline) {
		if cond() {
			return true
		}
	}
	s.drained(deadline)
	return false
}

// Pending returns the number of entries in the event queue: plain
// events plus one per busy lane (a link stage with packets in it, a
// probe stream mid-send), however many packets stand behind each head.
// Zero still means idle: nothing is left to fire.
func (s *Simulator) Pending() int { return s.q.Len() }
