package experiments

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/tsstore"

	pathload "repro"
)

// A StepVerdict grades one path's stored series against a mid-run load
// step: the configured avail-bw on either side of the step, the
// tsstore windows over the same two spans, and whether the series
// tracked the change.
type StepVerdict struct {
	// StepUp is true when cross traffic was added mid-run (avail-bw
	// drops); false when it was removed (avail-bw rises).
	StepUp bool
	// TrueBefore and TrueAfter are the configured avail-bw
	// A = C_t·(1 − u_t) on each side of the step.
	TrueBefore, TrueAfter float64
	// StepAt is the path-local virtual time the step fired: the end of
	// the round that triggered it. Rounds starting at or after it
	// measure the post-step path; it is the boundary used to window the
	// stored series.
	StepAt time.Duration
	// Before and After aggregate the tsstore windows on each side.
	Before, After tsstore.Aggregate
	// TrackedBefore/TrackedAfter report whether each window holds a
	// round and its observed range [MinLo, MaxHi] brackets the
	// configured avail-bw within the termination slack ω + χ;
	// TrackedMove reports whether the mean mid-range estimate moved in
	// the step's direction by at least half the true step size.
	TrackedBefore, TrackedAfter, TrackedMove bool
}

// Tracked reports whether the stored series tracked the load change on
// this path: right level on both sides and a move in the right
// direction.
func (v StepVerdict) Tracked() bool {
	return v.TrackedBefore && v.TrackedAfter && v.TrackedMove
}

// stepSink chains in front of a tsstore.Store and fires each path's
// load step once, after the first sample for which due reports true.
// Monitor sinks run synchronously on the path's own session goroutine
// between rounds (monitor.go) — the round boundary a Prober cannot
// expose — so the step lands at the same boundary whatever the host's
// scheduling or the fleet's scheduler decide.
type stepSink struct {
	store *tsstore.Store
	// due reports whether the round just observed is the path's last
	// pre-step round.
	due func(pathload.Sample) bool

	mu      sync.Mutex
	steps   map[string]func()
	firedAt map[string]time.Duration
}

// Observe forwards the sample, then fires the path's pending step if
// the round was its last before the step.
func (s *stepSink) Observe(smp pathload.Sample) {
	s.store.Observe(smp)
	if !s.due(smp) {
		return
	}
	s.mu.Lock()
	fn := s.steps[smp.Path]
	delete(s.steps, smp.Path)
	if fn != nil {
		s.firedAt[smp.Path] = smp.At + smp.Result.Elapsed
	}
	s.mu.Unlock()
	if fn != nil {
		// Runs on the session goroutine that owns the path's simulator,
		// so toggling cross traffic here is race-free.
		fn()
	}
}

// RelVar implements schedule.VarSource by delegating to the store, so
// MonitorConfig.Store can be the chained sink without severing the
// tsstore → scheduler feedback edge.
func (s *stepSink) RelVar(path string, window time.Duration) (float64, bool) {
	return s.store.RelVar(path, window)
}

// runStepFleet is the load-step experiment the paper's §VI motivates
// but a one-shot tool cannot run: does a *monitored* avail-bw series
// track a load change that happens mid-run? Every path of the shard
// fleet (MonitorShards) carries its topology's cross traffic plus a
// deltaUtil·C_t step aggregate on the tight link, toggled when due
// fires: even-numbered paths gain load (avail-bw drops), odd-numbered
// paths, which start loaded, shed it. Every sample lands in a
// tsstore.Store, returned for the caller's own table, and the verdicts
// are read back *from the store*: the windows on either side of the
// step must sit at the configured avail-bw and the mean estimate must
// move with the step.
func runStepFleet(topos []Topology, deltaUtil float64, cfg pathload.MonitorConfig, due func(pathload.Sample) bool) ([]StepVerdict, *tsstore.Store) {
	nets := make([]*Net, len(topos))
	store := tsstore.New(tsstore.Config{})
	sink := &stepSink{store: store, due: due, steps: map[string]func(){}, firedAt: map[string]time.Duration{}}
	for i, t := range topos {
		n := t.Build()
		nets[i] = n
		extra := n.mesh.CrossTraffic(n.Tight(), n.Topo.TightCap*deltaUtil, n.Topo.Seed+500_000_009)
		if i%2 == 0 {
			sink.steps[PathID(i)] = extra.Start
		} else {
			// Step-down paths start loaded, from before the warm-up; the
			// step removes the extra aggregate mid-run.
			extra.Start()
			sink.steps[PathID(i)] = extra.Stop
		}
	}
	cfg.Store = sink
	mon, err := MonitorShards(nets, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: load step: %v", err))
	}
	collectClean(mon)

	slack := cfg.Config.Slack()
	verdicts := make([]StepVerdict, len(nets))
	for i, n := range nets {
		id := PathID(i)
		v := StepVerdict{StepUp: i%2 == 0, StepAt: sink.firedAt[id]}
		base := n.Topo.AvailBw()
		stepped := n.Topo.TightCap * (1 - n.Topo.TightUtil - deltaUtil)
		if v.StepUp {
			v.TrueBefore, v.TrueAfter = base, stepped
		} else {
			v.TrueBefore, v.TrueAfter = stepped, base
		}
		v.Before = store.Window(id, 0, v.StepAt)
		v.After = store.Window(id, v.StepAt, 1<<62)
		v.TrackedBefore = v.Before.Count > 0 && pathload.Brackets(v.Before.MinLo, v.Before.MaxHi, v.TrueBefore, slack)
		v.TrackedAfter = v.After.Count > 0 && pathload.Brackets(v.After.MinLo, v.After.MaxHi, v.TrueAfter, slack)
		move := v.After.MeanMid - v.Before.MeanMid
		trueMove := v.TrueAfter - v.TrueBefore
		v.TrackedMove = move*trueMove > 0 && math.Abs(move) >= math.Abs(trueMove)/2
		verdicts[i] = v
	}
	return verdicts, store
}
