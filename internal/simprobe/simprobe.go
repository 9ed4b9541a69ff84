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
}

// probeTag is the payload of simulated probe packets.
type probeTag struct {
	stream int
	seq    int
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
	p.section(func(sim *netsim.Simulator) (netsim.Time, bool) {
		return sim.Now() + netsim.FromDuration(d), false
	})
	return nil
}

// arrival is one received probe packet's sequence number and OWD.
type arrival struct {
	seq int
	owd netsim.Time
}

// A stream is one probe stream in flight: it injects its pre-built
// packets in sequence order and gathers their arrivals, each through a
// single prebound callback, so a stream of K packets allocates per
// stream, not per packet.
type stream struct {
	sim     *netsim.Simulator
	route   []*netsim.Link
	seat    *seqSlot
	pending []*netsim.Packet
	idx     int
	got     []arrival
	// collected is set once SendStream has read got. A timed-out
	// stream's stragglers still reach arrive after that; they must not
	// count, or the K-th would wake the seat out of its next await.
	collected bool
	arriveFn  netsim.Sink
	fireFn    func()
}

func (st *stream) fire() {
	pkt := st.pending[st.idx]
	st.pending[st.idx] = nil
	st.idx++
	st.sim.Inject(pkt, st.route, st.arriveFn)
}

func (st *stream) arrive(pk *netsim.Packet, at netsim.Time) {
	if !st.collected {
		st.got = append(st.got, arrival{seq: pk.Payload.(*probeTag).seq, owd: at - pk.SentAt})
		if len(st.got) == len(st.pending) { // all K are in
			st.seat.wake()
		}
	}
	st.sim.FreePacket(pk)
}

// SendStream schedules the K packet injections of one periodic stream,
// runs the simulation until every packet has arrived or timed out, and
// returns the per-packet relative OWDs.
func (p *Prober) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	if spec.K <= 0 || spec.L <= 0 || spec.T <= 0 {
		return pathload.StreamResult{}, fmt.Errorf("simprobe: invalid stream spec %+v", spec)
	}
	period := netsim.FromDuration(spec.T)

	var st *stream
	p.section(func(sim *netsim.Simulator) (netsim.Time, bool) {
		start := sim.Now()
		tags := make([]probeTag, spec.K)
		st = &stream{
			sim: sim, route: p.route, seat: p.slot,
			pending: make([]*netsim.Packet, spec.K),
			got:     make([]arrival, 0, spec.K),
		}
		st.fireFn, st.arriveFn = st.fire, st.arrive
		for i := 0; i < spec.K; i++ {
			pkt := sim.NewPacket()
			pkt.ID = p.slot.seq.nextPktID()
			pkt.Size = spec.L
			tags[i] = probeTag{stream: spec.Index, seq: i}
			pkt.Payload = &tags[i]
			st.pending[i] = pkt
			sim.Schedule(start+netsim.Time(i)*period, st.fireFn)
		}
		// The stream finishes sending at start + K·T; give arrivals until
		// the base path delay plus a generous queueing allowance. The
		// K-th arrival ends the wait early.
		return start + netsim.Time(spec.K)*period + p.baseDelay(spec.L) + p.LossTimeout, true
	})
	// Still holding the floor: nothing can arrive while we read.
	st.collected = true
	res := pathload.StreamResult{Sent: spec.K, OWDs: make([]pathload.OWDSample, 0, len(st.got))}
	for _, a := range st.got {
		res.OWDs = append(res.OWDs, pathload.OWDSample{
			Seq: a.seq,
			OWD: a.owd.Duration() + p.ClockOffset,
		})
	}
	return res, nil
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
