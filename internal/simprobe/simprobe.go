// Package simprobe adapts the discrete-event simulator to the pathload
// Prober interface: probe streams become simulated packet injections,
// one-way delays are exact arrival-minus-send times (optionally skewed
// by a configurable clock offset to exercise the relative-OWD
// property), and Idle advances virtual time.
//
// Every paper-figure reproduction measures through this prober, which
// makes the whole evaluation deterministic and immune to host GC and
// scheduler jitter — the practical obstacle to microsecond-scale
// probing from a garbage-collected runtime.
//
// Every prober holds a seat on a Sequencer, the deterministic
// co-scheduler that decides who may touch the simulator when. Sibling
// probers created on one Sequencer share its simulator and their probe
// streams genuinely overlap in virtual time; New is a Sequencer with a
// single seat, which runs the event loop on the caller's own goroutine
// with no hand-off at all. There is one engine either way.
package simprobe

import (
	"fmt"
	"time"

	"repro/internal/netsim"

	pathload "repro"
)

// A Prober emits pathload streams over a simulated route.
type Prober struct {
	route []*netsim.Link

	// ReverseDelay models the control path back from receiver to
	// sender (stream acknowledgments, RTT).
	ReverseDelay netsim.Time
	// ClockOffset is added to every measured OWD, emulating
	// unsynchronized end-host clocks. Trend detection must be
	// invariant to it.
	ClockOffset time.Duration
	// LossTimeout is how long past the nominal stream end the receiver
	// waits for stragglers before declaring the rest lost.
	LossTimeout netsim.Time

	// slot is the prober's seat on its Sequencer.
	slot *seqSlot
	// st is the one stream the prober can have in flight, reused by
	// every SendStream.
	st stream
}

// New creates a prober with a simulator to itself: it injects at the
// head of route and measures at its tail, and reverseDelay models the
// uncongested return path.
func New(sim *netsim.Simulator, route []*netsim.Link, reverseDelay netsim.Time) *Prober {
	return NewSequencer(sim).NewProber(route, reverseDelay)
}

// RTT returns the no-load round-trip time of the route: per-hop
// propagation plus the reverse delay. Queueing is excluded; pathload
// only needs a floor for inter-stream gaps.
func (p *Prober) RTT() time.Duration {
	var d netsim.Time
	for _, l := range p.route {
		d += l.PropDelay()
	}
	d += p.ReverseDelay
	return d.Duration()
}

// Idle advances the simulation by d, letting cross traffic evolve and
// queues drain between streams.
func (p *Prober) Idle(d time.Duration) error {
	sim := p.begin()
	p.await(sim.Now()+netsim.FromDuration(d), false)
	return nil
}

// A stream is a prober's stream arena: the state of the one probe
// stream it can have in flight. Its one buffer is the collector's K
// slots, which are also the OWDs SendStream returns (which is why those
// are only valid until the prober's next stream): sized by the first
// SendStream, regrown only when K grows, and reused by every stream
// after that, so a stream of K packets allocates nothing.
//
// A stream's packets are recognised by their IDs. SendStream reserves K
// contiguous IDs while it holds the floor, and arrive puts packet ID
// under seq ID−firstID. IDs only grow, so a straggler of an earlier,
// timed-out stream wraps to a seq far out of range; between streams the
// collector is closed and nothing matches at all.
type stream struct {
	sim   *netsim.Simulator
	route []*netsim.Link
	seat  *seqSlot

	firstID uint64 // ID of the stream's packet 0
	k       int    // packets in the stream
	size    int    // wire size of each packet
	sent    int    // packets injected so far
	// The injections are one lane of the event queue: packet i fires at
	// start + i·period under order ticket seq0 + i, and only the next
	// one is ever enqueued (see send).
	start, period netsim.Time
	seq0          uint64
	col           pathload.StreamCollector

	// fire and arrive as func values, bound once in NewProber.
	fireFn   func()
	arriveFn netsim.Sink
}

// open readies the arena for a stream of k packets of size bytes whose
// IDs start at firstID.
func (st *stream) open(firstID uint64, k, size int) {
	st.col.Open(k)
	st.firstID, st.k, st.size, st.sent = firstID, k, size, 0
}

// send starts the open stream's injections, one period apart from
// start. It takes all k order tickets now — the injections fire exactly
// where k events scheduled here would — and enqueues only the first;
// fire arms the rest one at a time.
func (st *stream) send(start, period netsim.Time) {
	st.start, st.period, st.seq0 = start, period, st.sim.Reserve(st.k)
	st.sim.ScheduleReserved(start, st.seq0, st.fireFn)
}

// fire injects the stream's next packet, arming the injection after it
// first.
func (st *stream) fire() {
	pkt := st.sim.NewPacket()
	pkt.ID = st.firstID + uint64(st.sent)
	pkt.Size = int32(st.size)
	st.sent++
	if st.sent < st.k {
		st.sim.ScheduleReserved(st.start+netsim.Time(st.sent)*st.period, st.seq0+uint64(st.sent), st.fireFn)
	}
	st.sim.Inject(pkt, st.route, st.arriveFn)
}

func (st *stream) arrive(pk *netsim.Packet, at netsim.Time) {
	if st.col.Put(pk.ID-st.firstID, (at - pk.SentAt).Duration()) { // all K are in
		st.seat.wake()
	}
	st.sim.FreePacket(pk)
}

// collect closes the stream and returns what arrived of it, in sequence
// order. The closed collector takes none of a timed-out stream's
// stragglers, so the K-th cannot wake the seat out of its next await.
func (st *stream) collect(clockOffset time.Duration) []pathload.OWDSample {
	return st.col.Drain(clockOffset)
}

// SendStream starts the K packet injections of one periodic stream,
// runs the simulation until every packet has arrived or timed out, and
// returns the per-packet relative OWDs, which stay valid until the
// prober's next SendStream.
func (p *Prober) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	if spec.K <= 0 || spec.L <= 0 || spec.T <= 0 {
		return pathload.StreamResult{}, fmt.Errorf("simprobe: invalid stream spec %+v", spec)
	}
	period := netsim.FromDuration(spec.T)

	sim := p.begin()
	start := sim.Now()
	p.st.open(p.slot.seq.reservePktIDs(spec.K), spec.K, spec.L)
	p.st.send(start, period)
	// The stream finishes sending at start + K·T; give arrivals until
	// the base path delay plus a generous queueing allowance. The K-th
	// arrival ends the wait early.
	p.await(start+netsim.Time(spec.K)*period+p.baseDelay(spec.L)+p.LossTimeout, true)
	// Still holding the floor: nothing can arrive while we read.
	return pathload.StreamResult{Sent: spec.K, OWDs: p.st.collect(p.ClockOffset)}, nil
}

// baseDelay returns the queue-free path traversal time for a packet of
// the given size.
func (p *Prober) baseDelay(size int) netsim.Time {
	var d netsim.Time
	for _, l := range p.route {
		d += l.PropDelay() + l.TxTime(size)
	}
	return d
}
