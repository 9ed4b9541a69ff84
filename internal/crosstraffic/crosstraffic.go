// Package crosstraffic generates background load for simulated links.
//
// It implements the traffic models used in the paper's NS simulations
// (§V-A): per-hop aggregates of independent sources with exponential or
// Pareto (α = 1.9, infinite variance) interarrivals and the trimodal
// Internet packet-size mix (40% 40 B, 50% 550 B, 10% 1500 B). Constant
// bit-rate sources are provided for fluid-model validation.
package crosstraffic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/eventq"
	"repro/internal/netsim"
)

// An Interarrival model produces successive packet interarrival times.
type Interarrival interface {
	// Next returns the time until the next packet arrival.
	Next(rng *rand.Rand) netsim.Time
	// Mean returns the model's mean interarrival time.
	Mean() netsim.Time
}

// Exponential is a Poisson arrival process: interarrivals are i.i.d.
// exponential with the given mean.
type Exponential struct{ M netsim.Time }

// Next draws an exponential interarrival.
func (e Exponential) Next(rng *rand.Rand) netsim.Time {
	return netsim.Time(rng.ExpFloat64() * float64(e.M))
}

// Mean returns the mean interarrival time.
func (e Exponential) Mean() netsim.Time { return e.M }

// Pareto produces heavy-tailed interarrivals x = xm·U^(−1/α). For
// 1 < α ≤ 2 the variance is infinite while the mean remains finite,
// the regime the paper uses (α = 1.9) to stress SLoPS with bursty,
// high-variability cross traffic.
type Pareto struct {
	Alpha float64
	M     netsim.Time // mean interarrival time
}

// Next draws a Pareto interarrival with mean M.
func (p Pareto) Next(rng *rand.Rand) netsim.Time {
	if p.Alpha <= 1 {
		panic(fmt.Sprintf("crosstraffic: Pareto alpha must exceed 1 for a finite mean, got %v", p.Alpha))
	}
	xm := float64(p.M) * (p.Alpha - 1) / p.Alpha
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return netsim.Time(xm * math.Pow(u, -1/p.Alpha))
}

// Mean returns the mean interarrival time.
func (p Pareto) Mean() netsim.Time { return p.M }

// Constant produces fixed-period arrivals (CBR traffic), which makes
// simulated links behave like the paper's fluid model.
type Constant struct{ M netsim.Time }

// Next returns the fixed period.
func (c Constant) Next(*rand.Rand) netsim.Time { return c.M }

// Mean returns the fixed period.
func (c Constant) Mean() netsim.Time { return c.M }

// A SizeDist produces packet wire sizes in bytes.
type SizeDist interface {
	Next(rng *rand.Rand) int
	MeanBytes() float64
}

// Trimodal is the paper's packet size mix: 40% 40-byte, 50% 550-byte,
// and 10% 1500-byte packets (mean 441 bytes).
type Trimodal struct{}

// Next draws a size from the trimodal mix.
func (Trimodal) Next(rng *rand.Rand) int {
	switch u := rng.Float64(); {
	case u < 0.4:
		return 40
	case u < 0.9:
		return 550
	default:
		return 1500
	}
}

// MeanBytes returns the mean packet size, 441 bytes.
func (Trimodal) MeanBytes() float64 { return 0.4*40 + 0.5*550 + 0.1*1500 }

// FixedSize produces packets of a single size.
type FixedSize struct{ Bytes int }

// Next returns the fixed size.
func (f FixedSize) Next(*rand.Rand) int { return f.Bytes }

// MeanBytes returns the fixed size.
func (f FixedSize) MeanBytes() float64 { return float64(f.Bytes) }

// An emitter is the emission machinery every source shares: the one
// link it loads, its size distribution and RNG, the arrival callback
// bound once, and the pending-arrival handle Stop cancels.
//
// The per-arrival path is allocation-free: the callback is bound once,
// the pending-arrival handle is a value, and packets come from (and
// return to) the simulator's packet freelist.
type emitter struct {
	sim   *netsim.Simulator
	route [1]*netsim.Link // the one link; Inject takes route[:]
	sizes SizeDist
	rng   *rand.Rand

	tickFn  func()
	next    eventq.Handle
	started bool
	nextID  uint64
}

func newEmitter(sim *netsim.Simulator, link *netsim.Link, sizes SizeDist, seed int64) emitter {
	return emitter{sim: sim, route: [1]*netsim.Link{link}, sizes: sizes, rng: rand.New(rand.NewSource(seed))}
}

// emit injects one packet now.
func (e *emitter) emit() {
	e.nextID++
	pkt := e.sim.NewPacket()
	pkt.ID = e.nextID
	pkt.Size = e.sizes.Next(e.rng)
	e.sim.Inject(pkt, e.route[:], nil)
}

// after books the next arrival d from now.
func (e *emitter) after(d netsim.Time) { e.next = e.sim.After(d, e.tickFn) }

// Stop cancels the source's pending arrival; a stopped source can be
// restarted with Start.
func (e *emitter) Stop() {
	if e.started {
		e.sim.Cancel(e.next)
		e.next = eventq.Handle{}
		e.started = false
	}
}

// A Source injects packets into one link at random times and discards
// them once transmitted. Sources are started with Start and removed
// with Stop; a stopped source can be restarted.
type Source struct {
	emitter
	iat Interarrival
}

// NewSource creates a traffic source loading link. Each source owns its
// RNG so that experiments are reproducible and sources are
// statistically independent.
func NewSource(sim *netsim.Simulator, link *netsim.Link, iat Interarrival, sizes SizeDist, seed int64) *Source {
	s := &Source{emitter: newEmitter(sim, link, sizes, seed), iat: iat}
	s.tickFn = s.tick
	return s
}

// Start schedules the source's first arrival at a random fraction of an
// interarrival time from now — the residual-life phase of a stationary
// renewal process. Without this, same-period sources (CBR aggregates in
// particular) fire in lockstep and the "aggregate" degenerates into
// periodic bursts. Starting a started source is a no-op.
func (s *Source) Start() {
	if s.started {
		return
	}
	s.started = true
	s.after(netsim.Time(s.rng.Float64() * float64(s.iat.Next(s.rng))))
}

// tick emits one packet and schedules the next arrival.
func (s *Source) tick() {
	s.emit()
	s.after(s.iat.Next(s.rng))
}

// Model selects an interarrival family for aggregates.
type Model int

// Supported interarrival families.
const (
	ModelPoisson Model = iota // exponential interarrivals
	ModelPareto               // Pareto interarrivals, α = 1.9
	ModelCBR                  // constant interarrivals
	ModelOnOff                // heavy-tailed on/off bursts (LRD aggregate)
)

// String names the model.
func (m Model) String() string {
	switch m {
	case ModelPoisson:
		return "poisson"
	case ModelPareto:
		return "pareto"
	case ModelCBR:
		return "cbr"
	case ModelOnOff:
		return "onoff"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParetoAlpha is the shape parameter the paper uses for heavy-tailed
// cross traffic: infinite variance, finite mean.
const ParetoAlpha = 1.9

// An Aggregate is a set of independent sources loading one link, the
// paper's "ten random sources" per hop.
type Aggregate struct{ Sources []*Source }

// NewAggregate creates n independent sources loading link whose
// combined mean rate is rate bits per second, using the given interarrival model and size
// distribution. Seeds are derived from seed so distinct aggregates can
// be made independent.
func NewAggregate(sim *netsim.Simulator, link *netsim.Link, rate float64, n int, model Model, sizes SizeDist, seed int64) *Aggregate {
	if n <= 0 {
		panic(fmt.Sprintf("crosstraffic: aggregate needs at least one source, got %d", n))
	}
	if rate < 0 {
		panic(fmt.Sprintf("crosstraffic: negative aggregate rate %v", rate))
	}
	agg := &Aggregate{}
	if rate == 0 {
		return agg
	}
	perSource := rate / float64(n)
	meanIAT := netsim.FromSeconds(sizes.MeanBytes() * 8 / perSource)
	for i := 0; i < n; i++ {
		var iat Interarrival
		switch model {
		case ModelPoisson:
			iat = Exponential{M: meanIAT}
		case ModelPareto:
			iat = Pareto{Alpha: ParetoAlpha, M: meanIAT}
		case ModelCBR:
			iat = Constant{M: meanIAT}
		case ModelOnOff:
			// Stateful: each source needs its own instance. NewParetoOnOff
			// preserves the long-run mean, so the aggregate rate matches
			// the request despite the bursty duty cycle.
			iat = NewParetoOnOff(meanIAT)
		default:
			panic(fmt.Sprintf("crosstraffic: unknown model %v", model))
		}
		// Offset seeds; the multiplier keeps streams well separated.
		agg.Sources = append(agg.Sources, NewSource(sim, link, iat, sizes, seed+int64(i)*0x9e3779b9))
	}
	return agg
}

// Start starts all sources in the aggregate.
func (a *Aggregate) Start() {
	for _, s := range a.Sources {
		s.Start()
	}
}

// Stop stops all sources in the aggregate.
func (a *Aggregate) Stop() {
	for _, s := range a.Sources {
		s.Stop()
	}
}
