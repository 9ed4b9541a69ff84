package tcpsim

import (
	"repro/internal/eventq"
	"repro/internal/netsim"
)

// A PingSample is one round-trip time measurement.
type PingSample struct {
	At  netsim.Time // send time
	RTT netsim.Time
}

// A Pinger measures path RTT the way the paper's experiments do with
// ping: a small probe every interval through the forward path, plus the
// constant reverse delay. Forward queueing delay — the quantity a
// saturating BTC connection inflates — shows up directly in the
// samples.
type Pinger struct {
	sim      *netsim.Simulator
	route    []*netsim.Link
	reverse  netsim.Time
	interval netsim.Time
	size     int

	samples []PingSample
	sent    int
	timer   eventq.Handle
	running bool
}

// NewPinger creates a pinger sending size-byte probes (64 bytes if 0 —
// a standard ping) every interval.
func NewPinger(sim *netsim.Simulator, route []*netsim.Link, reverse, interval netsim.Time, size int) *Pinger {
	if size == 0 {
		size = 64
	}
	return &Pinger{sim: sim, route: route, reverse: reverse, interval: interval, size: size}
}

// Start begins probing immediately.
func (p *Pinger) Start() {
	if p.running {
		return
	}
	p.running = true
	p.fire()
}

// Stop cancels further probes.
func (p *Pinger) Stop() {
	if p.running {
		p.sim.Cancel(p.timer)
		p.timer = eventq.Handle{}
		p.running = false
	}
}

func (p *Pinger) fire() {
	p.sent++
	pkt := &netsim.Packet{Size: int32(p.size)}
	p.sim.Inject(pkt, p.route, func(pk *netsim.Packet, at netsim.Time) {
		p.samples = append(p.samples, PingSample{
			At:  pk.SentAt,
			RTT: (at - pk.SentAt) + p.reverse,
		})
	})
	p.timer = p.sim.After(p.interval, p.fire)
}

// Samples returns the collected RTT measurements.
func (p *Pinger) Samples() []PingSample { return p.samples }

// Sent returns the number of probes emitted; compared with
// len(Samples()) it exposes ping losses.
func (p *Pinger) Sent() int { return p.sent }

// RTTSeconds extracts the RTT values in seconds.
func (p *Pinger) RTTSeconds() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.RTT.Seconds()
	}
	return out
}
