package crosstraffic

import (
	"fmt"
	"math/rand"

	"repro/internal/eventq"
	"repro/internal/netsim"
)

// Long-range-dependent on/off parameters. Heavy-tailed on/off durations
// with tail index 1 < α < 2 make the multiplexed aggregate self-similar
// (Taqqu, Willinger & Sherman): the Hurst parameter is H = (3−α)/2, so
// α = 1.5 gives H = 0.75 — burst clusters at every timescale, the
// regime where windowed avail-bw estimates stop converging with longer
// averaging (§VI dynamics).
const (
	// OnOffAlpha is the tail index of the on/off period durations.
	OnOffAlpha = 1.5
	// DefaultOnMean and DefaultOffMean are the mean burst and silence
	// durations used by ModelOnOff aggregates: a 1/3 duty cycle, so
	// within-burst rates run at 3× the long-run mean.
	DefaultOnMean  = 200 * netsim.Millisecond
	DefaultOffMean = 400 * netsim.Millisecond
)

// ParetoOnOff is a stateful on/off interarrival process: bursts emit
// packets every BurstIAT, burst and silence durations are Pareto(α)
// with means OnMean and OffMean. It implements Interarrival, so Source
// and Aggregate multiplex it like any other model; unlike the stateless
// models each source needs its own instance (the remaining burst time
// is carried between draws).
type ParetoOnOff struct {
	BurstIAT netsim.Time // packet spacing inside a burst
	OnMean   netsim.Time // mean burst duration
	OffMean  netsim.Time // mean silence duration
	Alpha    float64     // duration tail index, 1 < α < 2

	remaining netsim.Time // unconsumed time of the current burst
}

// NewParetoOnOff returns an on/off interarrival whose long-run mean
// interarrival time is mean, using the package default duty cycle and
// tail index.
func NewParetoOnOff(mean netsim.Time) *ParetoOnOff {
	duty := float64(DefaultOnMean) / float64(DefaultOnMean+DefaultOffMean)
	return &ParetoOnOff{
		BurstIAT: netsim.Time(float64(mean) * duty),
		OnMean:   DefaultOnMean,
		OffMean:  DefaultOffMean,
		Alpha:    OnOffAlpha,
	}
}

// Next returns the time to the next packet: BurstIAT inside a burst,
// plus a heavy-tailed silence when the current burst is exhausted.
func (p *ParetoOnOff) Next(rng *rand.Rand) netsim.Time {
	if p.BurstIAT <= 0 || p.OnMean <= 0 || p.OffMean < 0 {
		panic(fmt.Sprintf("crosstraffic: ParetoOnOff needs positive BurstIAT and OnMean, got %+v", *p))
	}
	var gap netsim.Time
	if p.remaining < p.BurstIAT {
		// Burst exhausted: sleep one heavy-tailed off period, then draw
		// the next burst's duration.
		gap = Pareto{Alpha: p.Alpha, M: p.OffMean}.Next(rng)
		p.remaining = Pareto{Alpha: p.Alpha, M: p.OnMean}.Next(rng)
	}
	p.remaining -= p.BurstIAT
	return gap + p.BurstIAT
}

// Mean returns the long-run mean interarrival time,
// BurstIAT·(OnMean+OffMean)/OnMean.
func (p *ParetoOnOff) Mean() netsim.Time {
	return netsim.Time(float64(p.BurstIAT) * float64(p.OnMean+p.OffMean) / float64(p.OnMean))
}

// A RampSource models a flash crowd: an inhomogeneous Poisson arrival
// process whose rate ramps linearly from zero to Peak over RampUp,
// holds Peak for Hold, ramps back to zero over RampDown, and then goes
// silent. A zero Hold holds the peak indefinitely (the crowd arrives
// and stays), which is what scenario epochs use — the end of the run
// bounds it.
//
// Arrivals are generated by thinning a homogeneous Poisson process at
// Peak rate, so the process is exact (not stepwise) and deterministic
// per seed.
type RampSource struct {
	emitter

	peak    float64 // bits/s at the plateau
	rampUp  netsim.Time
	hold    netsim.Time // 0 = indefinite
	rampDn  netsim.Time
	meanIAT netsim.Time // candidate spacing at Peak rate
	origin  netsim.Time
}

// NewRampSource creates a flash-crowd source loading link. peak is the
// plateau rate in bits/s; rampUp, hold, and rampDown shape the
// trapezoid (hold 0 = indefinite plateau).
func NewRampSource(sim *netsim.Simulator, link *netsim.Link, peak float64, rampUp, hold, rampDown netsim.Time, sizes SizeDist, seed int64) *RampSource {
	if peak <= 0 {
		panic(fmt.Sprintf("crosstraffic: RampSource peak must be positive, got %v", peak))
	}
	if rampUp < 0 || hold < 0 || rampDown < 0 {
		panic("crosstraffic: RampSource durations must be non-negative")
	}
	r := &RampSource{
		emitter: newEmitter(sim, link, sizes, seed),
		peak:    peak,
		rampUp:  rampUp,
		hold:    hold,
		rampDn:  rampDown,
		meanIAT: netsim.FromSeconds(sizes.MeanBytes() * 8 / peak),
	}
	r.tickFn = r.tick
	return r
}

// RateAt returns the modeled arrival rate in bits/s at time t relative
// to Start.
func (r *RampSource) RateAt(t netsim.Time) float64 {
	switch {
	case t < 0:
		return 0
	case t < r.rampUp:
		return r.peak * float64(t) / float64(r.rampUp)
	case r.hold == 0 || t < r.rampUp+r.hold:
		return r.peak
	case t < r.rampUp+r.hold+r.rampDn:
		return r.peak * float64(r.rampUp+r.hold+r.rampDn-t) / float64(r.rampDn)
	default:
		return 0
	}
}

// Start arms the ramp at the current simulated time. Starting a started
// source is a no-op; a stopped source can be re-armed, restarting the
// trapezoid from its new origin.
func (r *RampSource) Start() {
	if r.started {
		return
	}
	r.started = true
	r.origin = r.sim.Now()
	r.schedule()
}

// schedule books the next thinning candidate at the Peak-rate Poisson
// spacing.
func (r *RampSource) schedule() {
	r.after(netsim.Time(r.rng.ExpFloat64() * float64(r.meanIAT)))
}

// tick accepts the candidate arrival with probability rate(t)/Peak and
// retires the source once the trapezoid has closed.
func (r *RampSource) tick() {
	t := r.sim.Now() - r.origin
	if r.hold > 0 && t >= r.rampUp+r.hold+r.rampDn {
		r.started = false
		r.next = eventq.Handle{}
		return
	}
	if r.rng.Float64()*r.peak < r.RateAt(t) {
		r.emit()
	}
	r.schedule()
}
