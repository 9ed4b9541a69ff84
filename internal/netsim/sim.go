// Package netsim is a deterministic discrete-event network simulator.
//
// It models a network as store-and-forward links with FIFO drop-tail
// queues, the service discipline assumed by the SLoPS analysis (Jain &
// Dovrolis, SIGCOMM 2002). Packets carry an explicit route (a sequence
// of links) and a sink callback, so path traffic and one-hop cross
// traffic share links naturally.
//
// The event heap holds lane heads, not packets. A FIFO link stage
// (transmission, propagation) and a periodic probe stream each have
// many events outstanding of which only the oldest can fire next, so
// each is a lane of the event queue: it takes an order ticket per event
// where it would have called Schedule (Reserve) and enqueues only its
// head (ScheduleReserved), which arms the next as it fires. Order is
// (time, ticket) and nothing else, tickets are taken at the same points
// as before, and a lane's events are sorted by both — so every event
// fires exactly where one heap entry per packet would have put it (see
// package eventq), while the heap stays at sources + 2·links + streams
// entries instead of growing with rate × propagation delay. A nil-sink
// packet is freed where it finishes transmission on its last link: a
// delivery nobody observes is not an event, so Events() counts fewer of
// them per packet than a per-packet scheduler would.
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
	q      eventq.Queue
	now    Time
	events uint64
	// pktFree recycles packets allocated by NewPacket whose ownership
	// returned to the simulator (nil-sink delivery, drop); see FreePacket.
	pktFree []*Packet
}

// NewSimulator returns a simulator with time set to zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Events returns the total number of events executed so far, a useful
// cost metric for benchmarks. Deliveries nobody observes (a nil-sink
// packet leaving its last link) are not events.
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

// ScheduleReserved is Schedule under a ticket from Reserve. A lane's
// events are never cancelled, so there is no handle.
func (s *Simulator) ScheduleReserved(at Time, ticket uint64, fn func()) {
	s.mustNotBePast(at)
	s.q.ScheduleReserved(int64(at), ticket, fn)
}

// After runs fn after duration d of simulated time.
func (s *Simulator) After(d Time, fn func()) eventq.Handle {
	return s.Schedule(s.now+d, fn)
}

// Cancel removes a pending event. It reports whether the event was
// still pending; stale and zero handles report false.
func (s *Simulator) Cancel(h eventq.Handle) bool { return s.q.Cancel(h) }

// step fires the earliest event if it is due by limit, and reports
// whether it did: the one event-loop body under Run and RunUntil.
func (s *Simulator) step(limit Time) bool {
	at, ok := s.q.PeekTime()
	if !ok || Time(at) > limit {
		return false
	}
	e := s.q.Pop()
	s.now = Time(at)
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
	if until > s.now {
		s.now = until
	}
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
	if deadline > s.now {
		s.now = deadline
	}
	return false
}

// Pending returns the number of heap entries in the event queue: plain
// events plus one per busy lane (a link stage with packets in it, a
// probe stream mid-send), however many packets stand behind each head.
// Zero still means idle: nothing is left to fire.
func (s *Simulator) Pending() int { return s.q.Len() }
