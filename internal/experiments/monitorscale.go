package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/crosstraffic"
	"repro/internal/netsim"

	pathload "repro"
)

// ScaleFleetPaths is the number of concurrent simulated paths in the
// dynamics-at-scale experiment. The monitor acceptance bar is 64; the
// experiment holds the path count fixed and scales rounds instead so
// the fleet shape is always exercised.
const ScaleFleetPaths = 64

// Scale10kPaths is the extended fleet tier: ten thousand concurrent
// path shards, the scale target the allocation-free simulator core is
// built for. Rounds drop to one — the tier exercises fleet breadth,
// not per-path dynamics.
const Scale10kPaths = 10_000

// scaleFullRounds is the paper-scale number of re-measurement rounds
// per path.
const scaleFullRounds = 6

// A ScalePoint is one timestamped avail-bw range of a path's series.
type ScalePoint struct {
	At     time.Duration // path-local virtual time of the round's start
	Lo, Hi float64       // reported range, bits/s
}

// A PathSeries is one path's avail-bw-over-time record from the
// monitored fleet — one line of the paper's §VI time-series figures,
// with the simulation's MRTG reading as ground truth.
type PathSeries struct {
	Path string
	// True is the configured avail-bw A = C_t·(1 − u_t).
	True float64
	// MRTG is the tight link's counter-measured avail-bw over the whole
	// monitored span (probe load included, as a real MRTG would see).
	MRTG float64
	// Points is the per-round series, in round order.
	Points []ScalePoint
	// Covered counts rounds whose range brackets True within the
	// termination slack ω + χ.
	Covered int
}

// A ScaleResult is the outcome of the dynamics-at-scale experiment.
type ScaleResult struct {
	Paths   []PathSeries
	Rounds  int
	Workers int
	// Events is the total number of simulator events across the fleet.
	Events uint64
	// Wall is the host time the whole fleet run took.
	Wall time.Duration
}

// Coverage returns the fraction of path-rounds whose reported range
// bracketed the configured avail-bw.
func (r ScaleResult) Coverage() float64 {
	var covered, total int
	for _, p := range r.Paths {
		covered += p.Covered
		total += len(p.Points)
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// scaleTopology derives the fleet's per-path topologies: capacities
// cycle through the paper's link classes and utilization sweeps
// [0.15, 0.75], so the fleet spans quiet to heavily loaded paths.
func scaleTopology(i, paths int, seed int64) Topology {
	caps := []float64{6.1e6, 10e6, 12.4e6, 24e6}
	return Topology{
		Hops:          1,
		TightCap:      caps[i%len(caps)],
		TightUtil:     0.15 + 0.60*float64(i)/float64(paths-1),
		SourcesPerHop: 4,
		Model:         crosstraffic.ModelCBR,
		Seed:          seed + int64(i)*7_919_317,
	}
}

// DynamicsAtScale runs the monitor subsystem over a fleet of
// ScaleFleetPaths concurrent simulated paths: every path is its own
// simulator shard (warmed up in parallel on the run pool),
// pathload.Monitor re-measures each on a jittered interval through a
// bounded worker pool, and the per-path time series are checked against
// both the configured avail-bw and the tight link's MRTG reading. The
// run is deterministic: identical Options give identical series
// regardless of host scheduling.
func DynamicsAtScale(opt Options) ScaleResult {
	opt = opt.withDefaults()
	return dynamicsAtScale(opt, ScaleFleetPaths, opt.runs(scaleFullRounds))
}

// DynamicsAtScale10k is the extended tier: the same fleet shape at
// Scale10kPaths shards and a single round per path. One 10k run sweeps
// the whole utilization range at far finer granularity than the 64-path
// tier, and its wall clock is the simulator core's scaling benchmark.
func DynamicsAtScale10k(opt Options) ScaleResult {
	return dynamicsAtScale(opt.withDefaults(), Scale10kPaths, 1)
}

func dynamicsAtScale(opt Options, paths, rounds int) ScaleResult {
	nets := make([]*Net, paths)
	forRuns(paths, func(i int) { nets[i] = scaleTopology(i, paths, opt.Seed).Build() })
	workers := runtime.GOMAXPROCS(0)
	mon, err := MonitorShards(nets, pathload.MonitorConfig{
		Workers:  workers,
		Rounds:   rounds,
		Interval: 100 * time.Millisecond,
		Jitter:   0.3,
		Seed:     opt.Seed,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: dynamics-at-scale: %v", err))
	}
	// Metered after warm-up, before Start, and read once the fleet has
	// drained: each MRTG column spans its shard's whole measured run.
	meters := make([]netsim.Meter, paths)
	for i, n := range nets {
		meters[i] = netsim.NewMeter(n.Tight())
	}

	start := time.Now()
	series := make(map[string][]pathload.Sample, paths)
	for _, s := range collectClean(mon) {
		series[s.Path] = append(series[s.Path], s)
	}
	wall := time.Since(start)

	res := ScaleResult{Rounds: rounds, Workers: workers, Wall: wall}
	slack := pathload.Config{}.Slack()
	for i, n := range nets {
		id := PathID(i)
		samples := series[id]
		sort.Slice(samples, func(a, b int) bool { return samples[a].Round < samples[b].Round })

		ps := PathSeries{Path: id, True: n.Topo.AvailBw()}
		for _, s := range samples {
			ps.Points = append(ps.Points, ScalePoint{At: s.At, Lo: s.Result.Lo, Hi: s.Result.Hi})
			if pathload.Brackets(s.Result.Lo, s.Result.Hi, ps.True, slack) {
				ps.Covered++
			}
		}
		ps.MRTG = meters[i].Read().Avail
		res.Events += n.Sim.Events()
		res.Paths = append(res.Paths, ps)
	}
	return res
}
