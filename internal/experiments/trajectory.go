package experiments

import (
	"runtime"
	"time"

	"repro/internal/crosstraffic"

	pathload "repro"
)

// TrajectoryPaths is the fleet size of the trajectory experiment:
// small enough to read as a table, large enough to exercise both step
// directions across different link classes.
const TrajectoryPaths = 8

// trajectoryFullRounds is the paper-scale number of monitor rounds per
// path; the cross-traffic step lands halfway through.
const trajectoryFullRounds = 8

// trajectoryDeltaUtil is the utilization step Δu applied mid-run: a
// quarter of the tight link shifts on or off, well beyond the
// termination slack, so a tracking series must visibly move.
const trajectoryDeltaUtil = 0.25

// A TrajectoryPath is one path's view of the load-step experiment: the
// step verdict plus the whole stored series.
type TrajectoryPath struct {
	Path string
	StepVerdict
	// Points is the whole stored series in round order.
	Points []ScalePoint
}

// A TrajectoryResult is the outcome of the avail-bw trajectory
// experiment.
type TrajectoryResult struct {
	Paths []TrajectoryPath
	// Rounds is the per-path round count; StepRound is the first round
	// measured after the cross-traffic step.
	Rounds, StepRound int
}

// TrackedPaths counts paths whose series tracked the step.
func (r TrajectoryResult) TrackedPaths() int {
	n := 0
	for _, p := range r.Paths {
		if p.Tracked() {
			n++
		}
	}
	return n
}

// trajectoryTopology derives path i's link class and base load:
// capacities cycle through two of the paper's link classes and the
// base utilization sweeps 35–45%, so with the Δu = 25% step the paths
// operate between 35% and 70% load. Cross traffic is Poisson, not CBR:
// SLoPS needs burstiness to raise a detectable OWD trend within one
// stream, and perfectly smooth CBR load at low utilization makes
// pathload over-report (the flip side of the paper's §V-A choice of
// bursty traffic models).
func trajectoryTopology(i int, seed int64) Topology {
	caps := []float64{10e6, 12.4e6}
	return Topology{
		Hops:          1,
		TightCap:      caps[i%len(caps)],
		TightUtil:     0.35 + 0.05*float64(i%3),
		SourcesPerHop: 6,
		Model:         crosstraffic.ModelPoisson,
		Seed:          seed + int64(i)*7_919_317,
	}
}

// AvailBwTrajectory runs the load-step experiment (runStepFleet) over
// TrajectoryPaths paths on the monitor's default jittered schedule,
// the Δu = trajectoryDeltaUtil step landing halfway through the
// rounds. Identical Options give identical results regardless of host
// scheduling.
func AvailBwTrajectory(opt Options) TrajectoryResult {
	opt = opt.withDefaults()
	rounds := opt.runs(trajectoryFullRounds)
	stepRound := rounds / 2
	if stepRound == 0 {
		stepRound = 1
	}

	topos := make([]Topology, TrajectoryPaths)
	for i := range topos {
		topos[i] = trajectoryTopology(i, opt.Seed)
	}
	verdicts, store := runStepFleet(topos, trajectoryDeltaUtil, pathload.MonitorConfig{
		Workers:  runtime.GOMAXPROCS(0),
		Rounds:   rounds,
		Interval: 100 * time.Millisecond,
		Jitter:   0.3,
		Seed:     opt.Seed,
	}, func(s pathload.Sample) bool { return s.Round == stepRound-1 })

	res := TrajectoryResult{Rounds: rounds, StepRound: stepRound}
	for i, v := range verdicts {
		tp := TrajectoryPath{Path: PathID(i), StepVerdict: v}
		for _, p := range store.Snapshot(tp.Path) {
			tp.Points = append(tp.Points, ScalePoint{At: p.At, Lo: p.Lo, Hi: p.Hi})
		}
		res.Paths = append(res.Paths, tp)
	}
	return res
}
