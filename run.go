package pathload

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// Run performs one complete pathload measurement over the given prober
// and returns the avail-bw range. It drives the SLoPS iterative
// algorithm: propose a fleet rate, emit up to N streams at that rate,
// classify each stream's OWD trend, fold the stream verdicts into a
// fleet verdict (including the grey region), and bisect until the
// termination resolutions ω and χ are met.
func Run(p Prober, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}

	var res Result
	if !cfg.DisableInitProbe {
		adr, elapsed, bits, err := initProbe(p, cfg)
		res.Elapsed += elapsed
		res.Bits += bits
		if err != nil {
			return res, fmt.Errorf("pathload: init probe: %w", err)
		}
		res.ADR = adr
		if capped := adr * ADRMargin; adr > 0 && capped < cfg.MaxRate {
			cfg.MaxRate = capped
		}
	}

	ctrl, err := core.NewController(core.ControllerConfig{
		MaxRate:        cfg.MaxRate,
		Resolution:     cfg.Resolution,
		GreyResolution: cfg.GreyResolution,
	})
	if err != nil {
		// res already carries the init probe's Elapsed, Bits, and ADR;
		// callers (and the Monitor's path-local clock) rely on errored
		// runs reporting the probing time they consumed.
		return res, err
	}

	trendCfg := core.TrendConfig{
		PDTIncreasing:    cfg.PDTIncreasing,
		PDTNonIncreasing: cfg.PDTNonIncreasing,
		DisablePCT:       cfg.DisablePCT,
	}

	sc := getScratch(cfg)
	defer scratchPool.Put(sc)
	for fleet := 0; !ctrl.Done() && fleet < cfg.MaxFleets; fleet++ {
		rate := ctrl.Rate()
		trace, elapsed, bits, err := runFleet(p, cfg, trendCfg, sc, fleet, rate)
		res.Elapsed += elapsed
		res.Bits += bits
		if err != nil {
			res.Fleets = sc.fleetsOut()
			return res, fmt.Errorf("pathload: fleet %d at %.2f Mb/s: %w", fleet, rate/1e6, err)
		}
		sc.fleets = append(sc.fleets, trace)
		ctrl.Record(trace.Verdict)
	}
	res.Fleets = sc.fleetsOut()

	cr := ctrl.Result()
	res.Lo, res.Hi = cr.Lo, cr.Hi
	res.GreySet, res.GreyLo, res.GreyHi = cr.GreySet, cr.GreyLo, cr.GreyHi
	res.HitMax, res.HitMin = cr.HitMax, cr.HitMin
	return res, nil
}

// A scratch is the working memory of one Run: every stream of every
// fleet reuses its buffers, and the run's traces collect in it until
// fleetsOut copies them out. Runs take scratches from scratchPool, so a
// warmed Run allocates only what it returns (TestRunAllocationBudget).
type scratch struct {
	owds    []float64         // one stream's OWDs, seconds; ClassifyInPlace reorders it
	medians []float64         // that stream's median groups
	kinds   []core.StreamType // one fleet's stream verdicts
	// fleets are the run's completed fleets; each one's Streams is the
	// window of streams it appended, read only for its length, since a
	// later append may move streams.
	fleets  []FleetTrace
	streams []StreamTrace // every stream of the run, in order
}

// scratchPool holds the *scratch values of finished Runs. Nothing in
// one is the caller's: fleetsOut copied the traces out.
var scratchPool sync.Pool

// getScratch returns an empty scratch sized for cfg's streams and
// fleets, from scratchPool when it has one.
func getScratch(cfg Config) *scratch {
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil {
		sc = new(scratch)
	}
	// A stream has at most as many median groups as packets, so one
	// array serves both float buffers.
	if k := cfg.PacketsPerStream; cap(sc.owds) < k {
		buf := make([]float64, 2*k)
		sc.owds, sc.medians = buf[:0:k], buf[k:k:2*k]
	}
	if n := cfg.StreamsPerFleet; cap(sc.kinds) < n {
		sc.kinds = make([]core.StreamType, 0, n)
	}
	clear(sc.fleets) // windows into streams arrays sc may have outgrown
	sc.fleets, sc.streams = sc.fleets[:0], sc.streams[:0]
	return sc
}

// fleetsOut copies the run's fleets and their streams into one
// exact-size array each, which the caller owns: every fleet's Streams
// is a full-slice window of the streams array (cap == len), so an
// append to one moves it rather than overwrite its neighbour, and
// nothing aliases the pooled scratch. The recorded fleets' streams are
// a prefix of sc.streams; a failed fleet's follow them and stay behind.
// No fleets is a nil slice, as before any fleet ran.
func (sc *scratch) fleetsOut() []FleetTrace {
	if len(sc.fleets) == 0 {
		return nil
	}
	n := 0
	for _, f := range sc.fleets {
		n += len(f.Streams)
	}
	fleets := make([]FleetTrace, len(sc.fleets))
	streams := make([]StreamTrace, n)
	copy(streams, sc.streams)
	for i, f := range sc.fleets {
		k := len(f.Streams)
		f.Streams, streams = streams[:k:k], streams[k:]
		fleets[i] = f
	}
	return fleets
}

// initProbe sends one short stream at the generation limit and
// estimates the path's asymptotic dispersion rate from the received
// packets (StreamResult.DispersionRate). In the fluid model the ADR of
// a saturating train satisfies A ≤ ADR ≤ C, so it upper-bounds the
// avail-bw search.
func initProbe(p Prober, cfg Config) (adr float64, elapsed time.Duration, bits float64, err error) {
	rate := cfg.GenerationLimit()
	l, t := cfg.StreamParams(rate)
	spec := StreamSpec{Rate: rate, K: DefaultInitProbePackets, L: l, T: t, Fleet: -1}
	sr, err := p.SendStream(spec)
	elapsed = spec.Duration()
	bits = float64(sr.Sent*l) * 8
	if err != nil {
		return 0, elapsed, bits, err
	}
	if idle := p.RTT(); idle > 0 {
		if err := p.Idle(idle); err != nil {
			return 0, elapsed, bits, err
		}
		elapsed += idle
	}
	adr, _ = sr.DispersionRate(spec) // 0 on an unusable train: keep the configured MaxRate
	return adr, elapsed, bits, nil
}

// runFleet emits one fleet of at most N streams at the given rate and
// reduces it to a verdict. It stops before stream N on two grounds.
// Loss (§IV): losses mean the probing rate overloads the path, so the
// fleet aborts when a single stream loses more than
// DefaultStreamAbortLoss of its packets, or when at least two streams
// and a strict majority of the streams sent so far are moderately lossy
// (above DefaultModerateLoss) — the paper's fleet-wide moderate-loss
// rule evaluated online, at the earliest point a majority is
// established, with the two-stream quorum keeping one unlucky stream
// from condemning a fleet that the moderate-loss rule is meant to
// tolerate.
// Decided: the fleet also ends, before the inter-stream idle, once the
// streams not yet sent could change neither the trend vote
// (core.FleetDecided) nor the loss outcome — even if all of them were
// moderately lossy they would not make a majority, rem ≤ sent − 2·lossy
// — so the verdict is exactly what all N streams would have produced
// and the rest would be probe load (§VIII) and latency spent on
// nothing. The one thing an unsent stream could still have done is
// exceed DefaultStreamAbortLoss: a single stream aborts a fleet only if
// sent.
//
// The fleet's streams go onto sc.streams, and the trace's Streams is
// their window there.
func runFleet(p Prober, cfg Config, trendCfg core.TrendConfig, sc *scratch, fleet int, rate float64) (FleetTrace, time.Duration, float64, error) {
	l, t := cfg.StreamParams(rate)
	tau := time.Duration(cfg.PacketsPerStream) * t
	delta := DefaultInterStreamRTTs * tau
	if rtt := p.RTT(); delta < rtt {
		delta = rtt
	}

	trace := FleetTrace{Rate: rate, L: l, T: t, Delta: delta}
	first := len(sc.streams)
	var elapsed time.Duration
	var bits float64
	kinds := sc.kinds[:0]
	moderatelyLossy := 0
	aborted := false

	for i := 0; i < cfg.StreamsPerFleet; i++ {
		spec := StreamSpec{Rate: rate, K: cfg.PacketsPerStream, L: l, T: t, Fleet: fleet, Index: i}
		sr, err := p.SendStream(spec)
		elapsed += tau
		bits += float64(sr.Sent*spec.L) * 8
		if err != nil {
			return trace, elapsed, bits, err
		}

		st := StreamTrace{Loss: sr.LossRate()}
		var kind core.StreamType
		switch {
		case sr.Flagged:
			kind = core.TypeDiscard
		case sr.LossRate() > DefaultStreamAbortLoss:
			// One badly lossy stream condemns the whole fleet.
			aborted = true
			kind = core.TypeDiscard
		default:
			owds := sc.owds[:0]
			for _, s := range sr.OWDs {
				owds = append(owds, s.OWD.Seconds())
			}
			var metrics core.TrendMetrics
			kind, metrics = core.ClassifyInPlace(owds, sc.medians, trendCfg)
			st.PCT, st.PDT = metrics.PCT, metrics.PDT
		}
		if !aborted && sr.LossRate() > DefaultModerateLoss {
			moderatelyLossy++
			// At least two, and more than half, of the i+1 streams so
			// far are moderately lossy: the fleet majority is already
			// established, abort now rather than at stream N.
			if moderatelyLossy >= 2 && 2*moderatelyLossy > i+1 {
				aborted = true
			}
		}
		st.Kind = kind
		sc.streams = append(sc.streams, st)
		kinds = append(kinds, kind)

		rem := cfg.StreamsPerFleet - len(kinds)
		if aborted || rem == 0 || fleetSettled(kinds, moderatelyLossy, rem, cfg.FleetFraction) {
			break
		}
		if err := p.Idle(delta); err != nil {
			return trace, elapsed, bits, err
		}
		elapsed += delta
	}

	trace.Streams = sc.streams[first:]
	trace.Verdict = FleetAborted
	if !aborted {
		trace.Verdict = core.ClassifyFleet(kinds, cfg.FleetFraction)
	}
	return trace, elapsed, bits, nil
}

// fleetSettled reports whether the rem streams a fleet has not sent yet
// can no longer change its outcome, given the kinds of the streams sent
// and how many of those were moderately lossy: the trend vote is
// decided, and the moderate-loss majority is out of reach even if every
// remaining stream were lossy (k more lossy streams make a strict
// majority iff k > sent − 2·lossy, and then also the quorum of two).
func fleetSettled(kinds []core.StreamType, moderatelyLossy, rem int, f float64) bool {
	return rem <= len(kinds)-2*moderatelyLossy && core.FleetDecided(kinds, rem, f)
}
