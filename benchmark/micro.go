package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Micro-probes isolate one layer each. They run only in traced runs,
// each until the run-length rule (stats.go) is met; a sample is one
// timed batch, large enough that the clock read is noise.

// perOp times batch calls of fn and returns nanoseconds per call.
func perOp(batch int, fn func()) float64 {
	t := time.Now()
	for i := 0; i < batch; i++ {
		fn()
	}
	return float64(time.Since(t)) / float64(batch)
}

// microEventQ is the queue's schedule → pop → fire → recycle cycle, the
// innermost loop of every simulation.
func microEventQ(limit time.Duration) microResult {
	var q eventq.Queue
	fn := func() {}
	var at int64
	return runLength(limit, func() float64 {
		return perOp(200_000, func() {
			at++
			q.Schedule(at, fn)
			e := q.Pop()
			e.Fire()
			q.Recycle(e)
		})
	})
}

const forwardStep = 100 * netsim.Millisecond

// microForward is raw simulator throughput on the paper's default 5-hop
// topology with cross traffic, and the allocations per event of the
// same loop (the simulator core is allocation-free; this holds it
// there).
func microForward(limit time.Duration) (eventsPerSec microResult, allocsPerEvent float64) {
	net := experiments.Topology{Seed: 1}.Build()
	net.Sim.RunFor(forwardStep) // reach steady state first
	eventsPerSec = runLength(limit, func() float64 {
		before := net.Sim.Events()
		t := time.Now()
		net.Sim.RunFor(5 * forwardStep)
		return float64(net.Sim.Events()-before) / time.Since(t).Seconds()
	})
	before := net.Sim.Events()
	allocs := testing.AllocsPerRun(20, func() { net.Sim.RunFor(forwardStep) })
	perRun := float64(net.Sim.Events()-before) / 21 // AllocsPerRun warms up once
	return eventsPerSec, allocs / perRun
}

const lockstepShards = 64

// microLockstep is the sharded fleet clock the fleet warm-up runs on:
// 64 loaded default-topology shards advanced in 10 ms barriers by the
// given number of workers.
func microLockstep(limit time.Duration, workers int) microResult {
	sims := make([]*netsim.Simulator, lockstepShards)
	for i := range sims {
		sims[i] = experiments.Topology{Seed: int64(1 + i)}.Build().Sim
	}
	ls := netsim.NewLockstep(workers, sims...)
	defer ls.Close()
	ls.AdvanceFor(forwardStep)
	return runLength(limit, func() float64 {
		before := sumEvents(sims)
		t := time.Now()
		for i := 0; i < 5; i++ {
			ls.AdvanceFor(10 * netsim.Millisecond)
		}
		return float64(sumEvents(sims)-before) / time.Since(t).Seconds()
	})
}

// microClassify is the trend classification of one stream, on OWD
// vectors the traced probers captured from this run's own streams.
func microClassify(limit time.Duration, owds [][]float64) microResult {
	if len(owds) == 0 {
		return microResult{}
	}
	var i int
	return runLength(limit, func() float64 {
		return perOp(2000, func() {
			core.ClassifyOWDs(owds[i%len(owds)], core.TrendConfig{})
			i++
		})
	})
}

const microProbeSize = 800 // bytes; mid-range of the probe sizes pathload picks

var microSink []byte // keeps MarshalProbe's result alive

// microWire is the probe-packet codec the sender runs inside its pacing
// loop and the receiver on every arrival.
func microWire(limit time.Duration) (marshal, unmarshal microResult, marshalAllocs float64) {
	h := wire.ProbeHeader{Gen: 7, Fleet: 3, Stream: 5, Seq: 42, SentNs: 1_234_567_890}
	marshal = runLength(limit, func() float64 {
		return perOp(20_000, func() { microSink, _ = wire.MarshalProbe(h, microProbeSize) })
	})
	buf, _ := wire.MarshalProbe(h, microProbeSize)
	unmarshal = runLength(limit, func() float64 {
		return perOp(200_000, func() {
			if _, err := wire.UnmarshalProbe(buf); err != nil {
				panic(err)
			}
		})
	})
	marshalAllocs = testing.AllocsPerRun(1000, func() { microSink, _ = wire.MarshalProbe(h, microProbeSize) })
	return marshal, unmarshal, marshalAllocs
}
