package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/crosstraffic"
	"repro/internal/schedule"
	"repro/internal/tsstore"

	pathload "repro"
)

// AdaptiveSchedulePaths is the fleet size of the scheduler comparison:
// four quiet paths (well-multiplexed Poisson cross traffic, narrow
// estimate envelopes) and two volatile ones (heavy-tailed Pareto, wide
// envelopes), so an adaptive schedule has a real contrast to exploit.
const AdaptiveSchedulePaths = 6

// adaptiveFullHorizon is the paper-scale virtual observation window per
// path; every scheduler gets the same horizon and spends however many
// rounds its policy admits. The load step lands halfway through.
const adaptiveFullHorizon = 180 * time.Second

// adaptiveMinHorizon keeps scaled-down runs long enough for at least
// two rounds per window even on the slowest (budget-stretched)
// schedule.
const adaptiveMinHorizon = 36 * time.Second

// adaptiveFullBase is the paper-scale base re-measurement gap (the
// Fixed interval and the Adaptive reference gap).
const adaptiveFullBase = 10 * time.Second

// adaptiveDeltaUtil is the mid-run utilization step Δu: a fifth of the
// tight link shifts on or off, well beyond the termination slack.
const adaptiveDeltaUtil = 0.20

// adaptiveBudgetFraction sets the Budgeted variant's advertised
// aggregate cap as a fraction of the Fixed schedule's measured
// aggregate probe bit-rate: tight enough that the bucket visibly
// stretches gaps, loose enough that every path still tracks the step.
const adaptiveBudgetFraction = 0.6

// adaptiveEnforceFraction is the fraction of the advertised cap the
// token bucket actually enforces. Rounds are indivisible: a strict
// bucket keeps the long-run rate at its share, but a window a few
// rounds long can still catch a prepaid round at its edge and read
// above the share. Enforcing below the advertised cap leaves the
// headroom that keeps every window under it — the standard shaper
// discipline.
const adaptiveEnforceFraction = 0.85

// adaptiveRefRelVar is the windowed ρ at which the adaptive schedule
// probes at its base gap. At this experiment's stream parameters the
// quiet paths' trailing-window envelopes sit well below it (gaps
// stretch toward Max) and the volatile paths' above (gaps shrink
// toward Min); it is a per-deployment tuning constant, chosen here to
// split the fleet's observed ρ range.
const adaptiveRefRelVar = 1.2

// An AdaptivePathOutcome is one path's result under one scheduler: the
// load-step verdict plus what the schedule spent. The step fires at the
// end of the first round whose finish crossed the step time.
type AdaptivePathOutcome struct {
	Path string
	// Volatile marks the heavy-tailed (Pareto) paths; quiet paths carry
	// well-multiplexed Poisson cross traffic.
	Volatile bool
	StepVerdict
	// Rounds is how many measurements the schedule admitted within the
	// horizon; Bits their total probe load; End the path-local end of
	// the last round.
	Rounds int
	Bits   float64
	End    time.Duration
}

// A BudgetWindow is one virtual-time window of a scheduler's aggregate
// probe load, bits attributed to windows by span overlap.
type BudgetWindow struct {
	From, To time.Duration
	Bits     float64
}

// Rate returns the window's aggregate probe bit-rate.
func (w BudgetWindow) Rate() float64 {
	if w.To <= w.From {
		return 0
	}
	return w.Bits / (w.To - w.From).Seconds()
}

// An AdaptiveOutcome is one scheduler's fleet-wide result.
type AdaptiveOutcome struct {
	// Name is "fixed", "adaptive", or "budgeted".
	Name  string
	Paths []AdaptivePathOutcome
	// Windows split the fleet's common timeline into thirds; the
	// budget assertion checks every one against the configured cap.
	Windows []BudgetWindow
}

// Rounds and Bits total the fleet's probing under this scheduler.
func (o AdaptiveOutcome) Rounds() int {
	n := 0
	for _, p := range o.Paths {
		n += p.Rounds
	}
	return n
}

func (o AdaptiveOutcome) Bits() float64 {
	b := 0.0
	for _, p := range o.Paths {
		b += p.Bits
	}
	return b
}

// TrackedPaths counts paths whose series tracked the step.
func (o AdaptiveOutcome) TrackedPaths() int {
	n := 0
	for _, p := range o.Paths {
		if p.Tracked() {
			n++
		}
	}
	return n
}

// MaxWindowRate returns the highest aggregate probe bit-rate over the
// outcome's windows.
func (o AdaptiveOutcome) MaxWindowRate() float64 {
	max := 0.0
	for _, w := range o.Windows {
		if r := w.Rate(); r > max {
			max = r
		}
	}
	return max
}

// An AdaptiveResult is the outcome of the scheduler comparison.
type AdaptiveResult struct {
	// Fixed, Adaptive, and Budgeted are the three schedulers' fleets,
	// run over identical (identically seeded) paths and horizons.
	Fixed, Adaptive, Budgeted AdaptiveOutcome
	// Horizon is the per-path virtual observation window; StepTime the
	// nominal step time (horizon/2) the per-path steps fire around.
	Horizon, StepTime time.Duration
	// Base is the base re-measurement gap.
	Base time.Duration
	// BudgetRate is the Budgeted variant's configured aggregate cap,
	// bits per virtual second.
	BudgetRate float64
	// K and N are the per-measurement stream parameters used.
	K, N int
}

// Outcomes lists the three fleets in presentation order.
func (r AdaptiveResult) Outcomes() []AdaptiveOutcome {
	return []AdaptiveOutcome{r.Fixed, r.Adaptive, r.Budgeted}
}

// adaptiveTopology derives path i's link class, cross-traffic model,
// and base load. Volatile paths (every third) carry heavy-tailed
// Pareto traffic at high load — their estimate envelopes are wide, so
// the windowed ρ feedback keeps them on short gaps; quiet paths carry
// well-multiplexed Poisson at moderate load: narrow envelopes, long
// gaps.
func adaptiveTopology(i int, seed int64) (Topology, bool) {
	volatile := i%3 == 2
	caps := []float64{10e6, 12.4e6}
	topo := Topology{
		Hops:     1,
		TightCap: caps[i%len(caps)],
		Seed:     seed + int64(i)*7_919_317,
	}
	if volatile {
		// Few heavy-tailed sources at high load: the avail-bw process
		// itself swings, so measured envelopes are wide and ρ high.
		topo.Model = crosstraffic.ModelPareto
		topo.TightUtil = 0.60
		topo.SourcesPerHop = 4
	} else {
		// Many Poisson sources at moderate load (not CBR: SLoPS needs
		// burstiness to raise detectable OWD trends — the trajectory
		// experiment's gotcha): narrow envelopes, low ρ.
		topo.Model = crosstraffic.ModelPoisson
		topo.TightUtil = 0.35
		topo.SourcesPerHop = 10
	}
	return topo, volatile
}

// AdaptiveSchedule is the scheduler comparison the schedule package
// exists for: the same stepped-load fleet monitored three times over
// the same virtual horizon — under the Fixed gap, under the
// ρ-adaptive gap (feedback read back from the tsstore the monitor
// feeds, §VI-B), and under the fleet-wide probe budget (§VIII). The
// adaptive schedule must spend measurably fewer probe bits than the
// fixed one while every path still tracks the mid-run load step, and
// the budgeted schedule must hold aggregate probe bit-rate under its
// cap in every window. Identical Options give byte-identical results
// regardless of host scheduling: paths are independent, identically
// seeded simulator shards, and every scheduler decision derives from
// the path's own deterministic history.
func AdaptiveSchedule(opt Options) AdaptiveResult {
	opt = opt.withDefaults()
	cfg := contentionConfig(opt)

	horizon := time.Duration(float64(adaptiveFullHorizon) * opt.Scale)
	if horizon < adaptiveMinHorizon {
		horizon = adaptiveMinHorizon
	}
	base := time.Duration(float64(adaptiveFullBase) * opt.Scale)
	if min := adaptiveMinHorizon / 18; base < min {
		base = min
	}
	step := horizon / 2

	res := AdaptiveResult{
		Horizon: horizon, StepTime: step, Base: base,
		K: cfg.PacketsPerStream, N: cfg.StreamsPerFleet,
	}
	res.Fixed = runAdaptiveFleet("fixed", opt, cfg,
		&schedule.Fixed{Interval: base, Seed: opt.Seed}, horizon, step)

	// The budget cap derives from the fixed schedule's measured
	// aggregate rate, so it scales with Options instead of hardcoding
	// bits: 55% of what fixed spent per virtual second.
	fixedSpan := time.Duration(0)
	for _, p := range res.Fixed.Paths {
		if p.End > fixedSpan {
			fixedSpan = p.End
		}
	}
	res.BudgetRate = adaptiveBudgetFraction * res.Fixed.Bits() / fixedSpan.Seconds()

	res.Adaptive = runAdaptiveFleet("adaptive", opt, cfg,
		&schedule.Adaptive{Base: base, Min: base / 2, Max: 4 * base, Window: 8 * base, Ref: adaptiveRefRelVar},
		horizon, step)
	res.Budgeted = runAdaptiveFleet("budgeted", opt, cfg,
		&schedule.Budgeted{
			Inner: &schedule.Fixed{Interval: base, Seed: opt.Seed},
			Rate:  adaptiveEnforceFraction * res.BudgetRate,
		}, horizon, step)
	return res
}

// runAdaptiveFleet monitors one freshly built (identically seeded)
// stepped-load fleet under the given scheduler until every session's
// horizon is exhausted; the step fires on each path at the end of the
// first round whose finish reaches the step time on the path-local
// clock.
func runAdaptiveFleet(name string, opt Options, cfg pathload.Config, sched schedule.Scheduler, horizon, step time.Duration) AdaptiveOutcome {
	topos := make([]Topology, AdaptiveSchedulePaths)
	volatile := make([]bool, AdaptiveSchedulePaths)
	for i := range topos {
		topos[i], volatile[i] = adaptiveTopology(i, opt.Seed)
	}
	verdicts, store := runStepFleet(topos, adaptiveDeltaUtil, pathload.MonitorConfig{
		Workers:   runtime.GOMAXPROCS(0),
		Seed:      opt.Seed,
		Config:    cfg,
		Scheduler: &schedule.Until{Inner: sched, Horizon: horizon},
	}, func(s pathload.Sample) bool { return s.At+s.Result.Elapsed >= step })

	out := AdaptiveOutcome{Name: name}
	var allPts [][]tsstore.Point
	span := time.Duration(0)
	for i, v := range verdicts {
		po := AdaptivePathOutcome{Path: PathID(i), Volatile: volatile[i], StepVerdict: v}
		pts := store.Snapshot(po.Path)
		allPts = append(allPts, pts)
		po.Rounds = len(pts)
		for _, p := range pts {
			po.Bits += p.Bits
			if end := p.At + p.Span; end > po.End {
				po.End = end
			}
		}
		if po.End > span {
			span = po.End
		}
		out.Paths = append(out.Paths, po)
	}

	// Split the fleet timeline into thirds and attribute every round's
	// bits to the windows its probing span overlaps.
	const windows = 3
	w := span / windows
	for k := 0; k < windows; k++ {
		win := BudgetWindow{From: time.Duration(k) * w, To: time.Duration(k+1) * w}
		if k == windows-1 {
			win.To = span
		}
		for _, pts := range allPts {
			for _, p := range pts {
				win.Bits += overlapBits(p, win.From, win.To)
			}
		}
		out.Windows = append(out.Windows, win)
	}
	return out
}

// overlapBits attributes the fraction of a round's probe bits that
// falls inside [from, to), spreading the load uniformly over the
// round's probing span.
func overlapBits(p tsstore.Point, from, to time.Duration) float64 {
	if p.Span <= 0 {
		if p.At >= from && p.At < to {
			return p.Bits
		}
		return 0
	}
	lo, hi := p.At, p.At+p.Span
	if from > lo {
		lo = from
	}
	if to < hi {
		hi = to
	}
	if hi <= lo {
		return 0
	}
	return p.Bits * float64(hi-lo) / float64(p.Span)
}

// RenderAdaptive formats the scheduler comparison: one table per
// scheduler plus the budget-window view and a savings summary. No
// wall-clock fields: identical Options render byte-identically.
func RenderAdaptive(r AdaptiveResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive scheduling: fixed vs ρ-adaptive vs budgeted re-measurement\n")
	fmt.Fprintf(&b, "%d paths (4 quiet Poisson, 2 volatile Pareto), horizon %v/path, load step Δu=%.0f%% at %v\n",
		AdaptiveSchedulePaths, r.Horizon, adaptiveDeltaUtil*100, r.StepTime)
	fmt.Fprintf(&b, "base gap %v; stream params K=%d N=%d; budget cap %.2f Mb/s aggregate\n",
		r.Base, r.K, r.N, r.BudgetRate/1e6)
	for _, o := range r.Outcomes() {
		fmt.Fprintf(&b, "\nschedule=%s\n", o.Name)
		fmt.Fprintf(&b, "  %-9s %-8s %5s  %6s %9s  %15s %15s  %7s\n",
			"path", "class", "step", "rounds", "bits(Mb)", "true A (Mb/s)", "meas mid (Mb/s)", "tracked")
		for _, p := range o.Paths {
			class := "quiet"
			if p.Volatile {
				class = "volatile"
			}
			dir := "load-"
			if p.StepUp {
				dir = "load+"
			}
			fmt.Fprintf(&b, "  %-9s %-8s %5s  %6d %9.2f  %6.2f → %6.2f %6.2f → %6.2f  %7v\n",
				p.Path, class, dir, p.Rounds, p.Bits/1e6,
				p.TrueBefore/1e6, p.TrueAfter/1e6,
				p.Before.MeanMid/1e6, p.After.MeanMid/1e6, p.Tracked())
		}
		fmt.Fprintf(&b, "  total: %d rounds, %.2f Mb probe load; windows (Mb/s):", o.Rounds(), o.Bits()/1e6)
		for _, w := range o.Windows {
			fmt.Fprintf(&b, " %.2f", w.Rate()/1e6)
		}
		fmt.Fprintf(&b, "; tracked %d/%d\n", o.TrackedPaths(), len(o.Paths))
	}
	fmt.Fprintf(&b, "\nsummary:\n")
	fmt.Fprintf(&b, "  adaptive vs fixed: %.2f vs %.2f Mb probe load (%.0f%% saved), tracked %d/%d vs %d/%d\n",
		r.Adaptive.Bits()/1e6, r.Fixed.Bits()/1e6,
		100*(1-r.Adaptive.Bits()/r.Fixed.Bits()),
		r.Adaptive.TrackedPaths(), len(r.Adaptive.Paths),
		r.Fixed.TrackedPaths(), len(r.Fixed.Paths))
	fmt.Fprintf(&b, "  budgeted: max window rate %.2f Mb/s under cap %.2f Mb/s (fixed peaked at %.2f), tracked %d/%d\n",
		r.Budgeted.MaxWindowRate()/1e6, r.BudgetRate/1e6, r.Fixed.MaxWindowRate()/1e6,
		r.Budgeted.TrackedPaths(), len(r.Budgeted.Paths))
	return b.String()
}
