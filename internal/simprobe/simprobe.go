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
// A prober either owns its simulator outright (New) or shares it with
// sibling probers under a deterministic co-scheduler whose probe
// streams genuinely overlap in virtual time (Sequencer); which one is
// decided by who built the prober, not by an option. Both run the same
// measurement code; only the section engine — who may touch the
// simulator when — differs. The private mode is not run as a Sequencer
// of one because the goroutine hand-off per section roughly halves
// event throughput (the repository benchmark's
// simprobe.sequencer_efficiency ≈ 0.52).
package simprobe

import (
	"fmt"
	"time"

	"repro/internal/netsim"

	pathload "repro"
)

// A Prober emits pathload streams over a simulated route.
type Prober struct {
	sim   *netsim.Simulator
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

	// slot is set when the prober belongs to a Sequencer and its
	// sections are co-scheduled deterministically with its siblings';
	// nil for a privately owned sim.
	slot *seqSlot

	nextPktID uint64
}

// section runs setup with exclusive simulator access, advances the
// simulation until the condition setup returns holds (or, for a nil
// condition, until the returned deadline), then runs collect, still
// exclusively. It is the one place ownership matters: a private
// simulator is driven directly, and a Sequencer parks the goroutine and
// lets its driver interleave sibling sections on the shared virtual
// timeline.
func (p *Prober) section(setup func(sim *netsim.Simulator) (cond func() bool, deadline netsim.Time), collect func()) {
	if p.slot != nil {
		p.slot.section(setup, collect)
		return
	}
	cond, deadline := setup(p.sim)
	if cond == nil {
		p.sim.Run(deadline)
	} else {
		p.sim.RunUntil(cond, deadline)
	}
	if collect != nil {
		collect()
	}
}

// pktID allocates the next probe packet ID, from a shared counter when
// several probers inject into one simulator. It must only be called
// inside a section's setup, where simulator access is exclusive.
func (p *Prober) pktID() uint64 {
	if p.slot != nil {
		return p.slot.seq.nextPktID()
	}
	p.nextPktID++
	return p.nextPktID
}

// probeTag is the payload of simulated probe packets.
type probeTag struct {
	stream int
	seq    int
}

// New creates a prober that injects at the head of route and measures
// at its tail. reverseDelay models the uncongested return path.
func New(sim *netsim.Simulator, route []*netsim.Link, reverseDelay netsim.Time) *Prober {
	if len(route) == 0 {
		panic("simprobe: empty route")
	}
	return &Prober{
		sim:          sim,
		route:        route,
		ReverseDelay: reverseDelay,
		LossTimeout:  200 * netsim.Millisecond,
	}
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
	p.section(func(sim *netsim.Simulator) (func() bool, netsim.Time) {
		return nil, sim.Now() + netsim.FromDuration(d)
	}, nil)
	return nil
}

// arrival is one received probe packet's sequence number and OWD.
type arrival struct {
	seq int
	owd netsim.Time
}

// streamInjector injects one stream's pre-built packets in sequence
// order through a single prebound callback, so scheduling the K
// injections of a stream allocates per stream, not per packet.
type streamInjector struct {
	sim     *netsim.Simulator
	route   []*netsim.Link
	pending []*netsim.Packet
	idx     int
	sink    netsim.Sink
	fireFn  func()
}

func (inj *streamInjector) fire() {
	pkt := inj.pending[inj.idx]
	inj.pending[inj.idx] = nil
	inj.idx++
	inj.sim.Inject(pkt, inj.route, inj.sink)
}

// SendStream schedules the K packet injections of one periodic stream,
// runs the simulation until every packet has arrived or timed out, and
// returns the per-packet relative OWDs.
func (p *Prober) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	if spec.K <= 0 || spec.L <= 0 || spec.T <= 0 {
		return pathload.StreamResult{}, fmt.Errorf("simprobe: invalid stream spec %+v", spec)
	}
	period := netsim.FromDuration(spec.T)

	var got []arrival
	res := pathload.StreamResult{Sent: spec.K}

	p.section(func(sim *netsim.Simulator) (func() bool, netsim.Time) {
		start := sim.Now()
		got = make([]arrival, 0, spec.K)
		tags := make([]probeTag, spec.K)
		inj := &streamInjector{sim: sim, route: p.route, pending: make([]*netsim.Packet, spec.K)}
		inj.fireFn = inj.fire
		inj.sink = func(pk *netsim.Packet, at netsim.Time) {
			tag := pk.Payload.(*probeTag)
			got = append(got, arrival{seq: tag.seq, owd: at - pk.SentAt})
			sim.FreePacket(pk)
		}
		for i := 0; i < spec.K; i++ {
			pkt := sim.NewPacket()
			pkt.ID = p.pktID()
			pkt.Size = spec.L
			tags[i] = probeTag{stream: spec.Index, seq: i}
			pkt.Payload = &tags[i]
			inj.pending[i] = pkt
			sim.Schedule(start+netsim.Time(i)*period, inj.fireFn)
		}
		// The stream finishes sending at start + K·T; give arrivals until
		// the base path delay plus a generous queueing allowance.
		deadline := start + netsim.Time(spec.K)*period + p.baseDelay(spec.L) + p.LossTimeout
		return func() bool { return len(got) == spec.K }, deadline
	}, func() {
		res.OWDs = make([]pathload.OWDSample, 0, len(got))
		for _, a := range got {
			res.OWDs = append(res.OWDs, pathload.OWDSample{
				Seq: a.seq,
				OWD: a.owd.Duration() + p.ClockOffset,
			})
		}
	})
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
