package experiments

import (
	"runtime"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// Options scales an experiment. The paper-scale run (Scale = 1) uses
// the publication's run counts and window lengths; benchmarks use a
// smaller Scale so the whole suite stays fast.
type Options struct {
	// Scale multiplies run counts and measurement windows (1 = paper
	// scale; 0 selects 1).
	Scale float64
	// Seed derives every run's RNG seeds; identical Options give
	// identical results.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// runs scales a paper run count, with a floor so CDFs and averages stay
// meaningful at small scales.
func (o Options) runs(full int) int {
	n := int(float64(full)*o.Scale + 0.5)
	if n < 3 {
		n = 3
	}
	if n > full {
		n = full
	}
	return n
}

// window scales a measurement window with a floor.
func (o Options) window(full, floor netsim.Time) netsim.Time {
	w := netsim.Time(float64(full) * o.Scale)
	if w < floor {
		w = floor
	}
	return w
}

// runSeed derives a per-run seed; the large odd multiplier keeps the
// per-run RNG streams far apart.
func (o Options) runSeed(run int) int64 { return o.Seed + int64(run)*7_919_317 }

// forRuns calls run(i) once for every i in [0, n), on at most
// GOMAXPROCS goroutines (the caller's among them), and returns when
// every call has. Runs share nothing: each builds its own simulation
// from its own seed and writes only index i of its caller's slices,
// and the caller aggregates in index order after forRuns returns, so
// results do not depend on the worker count. A run's panic is not
// recovered; its message names the run.
func forRuns(n int, run func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			run(i)
		}
	}
	done := make(chan struct{})
	for range workers - 1 {
		go func() { work(); done <- struct{}{} }()
	}
	work()
	for range workers - 1 {
		<-done
	}
}

// Warmup time before any measurement, letting queues and heavy-tailed
// sources reach steady state.
const warmup = 3 * netsim.Second

// measureOnce builds the topology, warms it up, and runs one pathload
// measurement with the given config.
func measureOnce(topo Topology, cfg pathload.Config) (pathload.Result, *Net, error) {
	net := topo.Build()
	net.Warmup(warmup)
	prober := simprobe.New(net.Sim, net.Links, reverseDelay)
	res, err := pathload.Run(prober, cfg)
	return res, net, err
}

// mbps converts bits/s to Mb/s for reporting.
func mbps(bps float64) float64 { return bps / 1e6 }
