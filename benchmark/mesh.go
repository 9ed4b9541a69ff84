package main

import (
	"fmt"
	"time"

	pathload "repro"
	"repro/internal/mesh"
	"repro/internal/netsim"
	"repro/internal/simprobe"
	"repro/internal/tsstore"
)

// mesh_sequenced: one shared backbone, one event queue, one virtual
// clock; every path's session hands the floor to the next per stream
// section.

const (
	chainPaths      = 32
	chainRounds     = 3
	chainPathsSmoke = 4
	// bareSimSpan is how much simulated time the bare-simulator
	// reference (no sequencer, no probers) runs for.
	bareSimSpan = 20 * netsim.Second
)

type meshSequenced struct {
	opts  runOpts
	tally fleetTally
	// firstTraced is the seed of the first traced block: the bare
	// reference rebuilds exactly that mesh.
	firstTraced int64
}

// builtChain builds and warms the chain mesh for one block.
func builtChain(paths int, seed int64) (*mesh.Mesh, error) {
	m, err := mesh.Chain(paths, seed).Build()
	if err != nil {
		return nil, err
	}
	m.Warmup(fleetWarmup)
	return m, nil
}

func (f *meshSequenced) block(c blockCtx) (blockResult, error) {
	paths, rounds := chainPaths, chainRounds
	if c.smoke {
		paths, rounds = chainPathsSmoke, 2
	}
	tally := f.tally.forBlock(c)
	var b blockResult

	t0 := time.Now()
	m, err := builtChain(paths, c.seed)
	if err != nil {
		return b, err
	}
	store := tsstore.New(tsstore.Config{})
	var sink pathload.SampleSink = store
	if c.tracer != nil {
		sink = &tracedSink{inner: sink, tr: c.tracer}
		if f.firstTraced == 0 {
			f.firstTraced = c.seed
		}
	}
	// What mesh.MonitorFleet does, spelled out so a prober can be
	// wrapped between the sequencer (which needs the seat) and the
	// monitor (which gets the wrapper).
	seq, probers := m.SequencedProbers(fleetReverseDelay)
	drv := simprobe.NewSequencedDriver(seq)
	mon, err := pathload.NewMonitor(pathload.MonitorConfig{
		Rounds: rounds, Interval: fleetInterval, Jitter: fleetJitter,
		Seed: c.seed, Store: sink, Buffer: paths * rounds, Driver: drv,
	})
	if err != nil {
		return b, err
	}
	truth := make(map[string]float64, paths)
	for i, p := range m.Paths() {
		truth[p.Name] = p.AvailBw()
		drv.Register(p.Name, probers[i])
		var pr pathload.Prober = probers[i]
		if c.tracer != nil {
			pr = &tracedProber{inner: pr, lane: c.tracer.lane(p.Name)}
		}
		if err := mon.AddPath(p.Name, pr); err != nil {
			return b, err
		}
	}
	rec := m.NewLinkRecorder(store)
	drv.OnRoundBoundary(func(round int) {
		t := time.Now()
		rec.Snapshot(round)
		if c.tracer != nil {
			tally.hookUs = append(tally.hookUs, float64(time.Since(t))/1e3)
		}
	})
	b.setup = time.Since(t0)

	before := m.Sim.Events()
	gradeFleet(&b, tally, mon, truth, paths*rounds)
	tally.events += m.Sim.Events() - before
	if c.tracer != nil {
		tally.tracedWall += b.wall
	}
	return b, nil
}

func (f *meshSequenced) layers(rep *report, tr *tracer, spans []span, blocks []blockResult) {
	inProber := fleetLayers(rep, spans, blocks, &f.tally)
	t := &f.tally
	rep.set("mesh.link_snapshot_us_p50", median(t.hookUs), fmt.Sprintf("n=%d", len(t.hookUs)))

	// Prober spans include time parked waiting for the floor, so their
	// sum over wall time is how many sessions sit in a prober call at
	// once, not a busy share.
	rep.set("simprobe.mean_parked_sessions", float64(inProber)/float64(t.tracedWall),
		"Σ prober spans ÷ traced wall: sessions inside a prober call at once")

	// The same mesh with nothing but its cross traffic: what the event
	// queue does when no goroutine hand-off interrupts it.
	paths, span := chainPaths, bareSimSpan
	if f.opts.smoke {
		paths, span = chainPathsSmoke, netsim.Second
	}
	m, err := builtChain(paths, f.firstTraced)
	if err != nil {
		rep.Problems = append(rep.Problems, "bare reference: "+err.Error())
		return
	}
	before := m.Sim.Events()
	t0 := time.Now()
	m.Sim.RunFor(span)
	bare := float64(m.Sim.Events()-before) / time.Since(t0).Seconds()
	rep.set("netsim.bare_events_per_s", bare, fmt.Sprintf("Sim.RunFor(%v) on the first traced block's mesh", span.Duration()))
	rep.set("simprobe.sequencer_efficiency", rep.Metrics["netsim.events_per_s"].Value/bare, "fleet events/s ÷ bare events/s")

	simCoreMicro(rep, tr, f.opts.probeLimit())
}
