package main

import (
	"fmt"
	"time"

	pathload "repro"
	"repro/internal/crosstraffic"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"
	"repro/internal/tsstore"
)

// Sizes shared by the two fleet workloads: what cmd/repro's fleet tiers
// use.
const (
	fleetWarmup       = 3 * netsim.Second
	fleetReverseDelay = 10 * netsim.Millisecond
	fleetInterval     = 100 * time.Millisecond
	fleetJitter       = 0.3
)

// fleetSlack is how far outside [Lo, Hi] the analytic avail-bw may lie
// and still count as bracketed: the termination resolutions ω + χ.
const fleetSlack = pathload.DefaultResolution + pathload.DefaultGreyResolution

// A fleetTally counts what the two fleet workloads report per layer.
type fleetTally struct {
	samples, fleets, grey, hitLimit int
	events                          uint64
	tracedWall                      time.Duration // Σ wall of the traced blocks
	hookUs                          []float64     // round-boundary hook durations, traced blocks
}

// forBlock returns the tally a block adds to: the run's own, or a
// scratch one for the replay check's blocks, which no metric counts.
func (t *fleetTally) forBlock(c blockCtx) *fleetTally {
	if c.index < 0 {
		return &fleetTally{}
	}
	return t
}

// gradeFleet drains a started monitor, then fills b from the samples:
// one op per path-round, latency = simulated measurement time, io =
// probe bytes, quality = share bracketing truth within fleetSlack.
func gradeFleet(b *blockResult, tally *fleetTally, mon *pathload.Monitor, truth map[string]float64, want int) {
	var samples []pathload.Sample
	measured(b, func() {
		if err := mon.Start(); err != nil {
			b.problems = append(b.problems, err.Error())
			return
		}
		for s := range mon.Results() {
			samples = append(samples, s)
		}
		mon.Wait()
	})
	b.ops = len(samples)
	if b.ops != want {
		b.problems = append(b.problems, fmt.Sprintf("%d path-rounds, want %d", b.ops, want))
	}
	for _, s := range samples {
		if s.Err != nil {
			b.failed++
			continue
		}
		r := s.Result
		b.latencyMs = append(b.latencyMs, float64(r.Elapsed)/1e6)
		b.ioBytes += r.Bits / 8
		b.graded++
		if a := truth[s.Path]; r.Lo-fleetSlack <= a && a <= r.Hi+fleetSlack {
			b.good++
		}
		tally.samples++
		tally.fleets += len(r.Fleets)
		if r.GreySet {
			tally.grey++
		}
		if r.HitMax || r.HitMin {
			tally.hitLimit++
		}
	}
	b.hash = transcriptHash(samples)
}

// fleetLayers derives the per-layer metrics both fleet workloads share
// from the traced blocks' spans and the tally.
// It returns the time spent inside prober calls.
func fleetLayers(rep *report, spans []span, blocks []blockResult, t *fleetTally) (inProber time.Duration) {
	by := totalsByName(spans)
	get := func(name string) *spanTotals {
		if s := by[name]; s != nil {
			return s
		}
		return &spanTotals{}
	}
	send, idle, round := get(spanSendStream), get(spanIdle), get(spanRound)
	var wall time.Duration
	var ops int
	for _, b := range blocks {
		wall += b.wall
		ops += b.ops
	}
	nSend := fmt.Sprintf("n=%d spans", send.N)
	rep.set("simprobe.send_stream_us_p50", quantile(send.Durs, 0.50), nSend)
	rep.set("simprobe.send_stream_us_p99", quantile(send.Durs, 0.99), nSend)
	rep.set("simprobe.streams_per_round", float64(send.N)/float64(round.N), fmt.Sprintf("%d traced rounds", round.N))
	rep.set("netsim.events_per_s", float64(t.events)/wall.Seconds(), fmt.Sprintf("%d events", t.events))
	rep.set("netsim.events_per_path_round", float64(t.events)/float64(ops), fmt.Sprintf("%d path-rounds", ops))
	rep.set("monitor.self_share", float64(round.Self)/float64(round.Total), "round spans' self time ÷ their duration")
	nSamples := fmt.Sprintf("%d samples", t.samples)
	rep.set("run.fleets_per_round", float64(t.fleets)/float64(t.samples), nSamples)
	rep.set("run.grey_ratio", float64(t.grey)/float64(t.samples), nSamples)
	rep.set("run.hit_limit_ratio", float64(t.hitLimit)/float64(t.samples), nSamples)
	first, later := get(spanObserve1), get(spanObserve)
	rep.set("tsstore.observe_first_us_p50", median(first.Durs), fmt.Sprintf("n=%d", first.N))
	rep.set("tsstore.observe_us_p50", median(later.Durs), fmt.Sprintf("n=%d", later.N))
	return send.Total + idle.Total
}

// simCoreMicro runs the micro-probes of the layers under every
// simulated measurement.
func simCoreMicro(rep *report, tr *tracer, limit time.Duration) {
	rep.setMicro("eventq.schedule_fire_ns", microEventQ(limit))
	fwd, allocs := microForward(limit)
	rep.setMicro("netsim.forward_events_per_s", fwd)
	rep.set("netsim.forward_allocs_per_event", allocs, "testing.AllocsPerRun over 100 ms of simulated forwarding")
	rep.setMicro("core.classify_owds_ns", microClassify(limit, tr.owdVectors()))
}

// fleet_shards: independent one-hop shards, each its own simulator.

var shardCaps = []float64{6.1e6, 10e6, 12.4e6, 24e6}

// shardTopology is the scale tier's shape (experiments.DynamicsAtScale):
// capacities cycle through the paper's link classes and the tight
// link's utilization sweeps 0.15 → 0.75 across the fleet.
func shardTopology(i, shards int, seed int64) experiments.Topology {
	return experiments.Topology{
		Hops:          1,
		TightCap:      shardCaps[i%len(shardCaps)],
		TightUtil:     0.15 + 0.60*float64(i)/float64(shards-1),
		SourcesPerHop: 4,
		Model:         crosstraffic.ModelCBR,
		Seed:          seed + int64(i)*7_919_317,
	}
}

const (
	shardsPerBlock = 384
	shardRounds    = 2
	shardsSmoke    = 64
)

type fleetShards struct {
	opts  runOpts
	tally fleetTally
}

func (f *fleetShards) block(c blockCtx) (blockResult, error) {
	shards, rounds := shardsPerBlock, shardRounds
	if c.smoke {
		shards, rounds = shardsSmoke, 1
	}
	tally := f.tally.forBlock(c)
	var b blockResult
	sims := make([]*netsim.Simulator, shards)
	truth := make(map[string]float64, shards)

	t0 := time.Now()
	nets := make([]*experiments.Net, shards)
	for i := range nets {
		nets[i] = shardTopology(i, shards, c.seed).Build()
		sims[i] = nets[i].Sim
	}
	warm := netsim.NewLockstep(c.workers, sims...)
	warm.AdvanceTo(fleetWarmup)
	warm.Close()
	var sink pathload.SampleSink = tsstore.New(tsstore.Config{})
	if c.tracer != nil {
		sink = &tracedSink{inner: sink, tr: c.tracer}
	}
	mon, err := pathload.NewMonitor(pathload.MonitorConfig{
		Workers: c.workers, Rounds: rounds, Interval: fleetInterval, Jitter: fleetJitter,
		Seed: c.seed, Store: sink, Buffer: shards * rounds,
	})
	if err != nil {
		return b, err
	}
	for i, n := range nets {
		id := fmt.Sprintf("path-%04d", i)
		truth[id] = n.Topo.AvailBw()
		var p pathload.Prober = simprobe.New(n.Sim, n.Links, fleetReverseDelay)
		if c.tracer != nil {
			p = &tracedProber{inner: p, lane: c.tracer.lane(id)}
		}
		if err := mon.AddPath(id, p); err != nil {
			return b, err
		}
	}
	b.setup = time.Since(t0)

	before := sumEvents(sims)
	gradeFleet(&b, tally, mon, truth, shards*rounds)
	tally.events += sumEvents(sims) - before
	if c.tracer != nil {
		tally.tracedWall += b.wall
	}
	return b, nil
}

func sumEvents(sims []*netsim.Simulator) uint64 {
	var n uint64
	for _, s := range sims {
		n += s.Events()
	}
	return n
}

func (f *fleetShards) layers(rep *report, tr *tracer, spans []span, blocks []blockResult) {
	inProber := fleetLayers(rep, spans, blocks, &f.tally)
	// Each shard has its own simulator, so a prober call never waits
	// for another path: time inside one is time a worker was busy.
	rep.set("simprobe.busy_share", float64(inProber)/float64(f.tally.tracedWall*time.Duration(f.opts.workers)),
		fmt.Sprintf("Σ SendStream+Idle spans ÷ (traced wall × %d workers)", f.opts.workers))
	limit := f.opts.probeLimit()
	simCoreMicro(rep, tr, limit)
	rep.setMicro("netsim.lockstep_events_per_s_w1", microLockstep(limit, 1))
	rep.setMicro("netsim.lockstep_events_per_s_w2", microLockstep(limit, 2))
}
