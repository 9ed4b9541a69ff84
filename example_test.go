package pathload_test

import (
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"
	"repro/internal/tsstore"

	pathload "repro"
)

// One measurement of a simulated path: the paper's default 5-hop
// topology, whose 10 Mb/s tight link at 60 % utilization leaves 4 Mb/s
// of avail-bw, probed with default parameters.
func ExampleRun() {
	// A 5-hop path; the middle link is the tight one.
	net := experiments.Topology{Seed: 42}.Build()
	net.Warmup(3 * netsim.Second)

	// A prober injects probe streams at the head of the route and
	// timestamps them at the tail.
	prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)

	res, err := pathload.Run(prober, pathload.Config{})
	if err != nil {
		panic(err)
	}

	fmt.Printf("true avail-bw: %.2f Mb/s\n", net.Topo.AvailBw()/1e6)
	fmt.Printf("pathload:      %v\n", res)
	fmt.Printf("fleets probed: %d, virtual probing time %v\n", len(res.Fleets), res.Elapsed)
	// Output:
	// true avail-bw: 4.00 Mb/s
	// pathload:      avail-bw [2.65, 6.63] Mb/s (grey [3.98, 5.30])
	// fleets probed: 5, virtual probing time 8.4556986s
}

// Streaming avail-bw time series over many paths at once, the paper's
// dynamics viewpoint (§VI) as a long-running service: eight simulated
// paths with different loads, three rounds each, every sample also
// retained in a tsstore.Store whose windowed aggregates (range, mean,
// median, ρ) are read back once the monitor is done. Samples arrive in
// completion order; each line is deterministic.
func ExampleMonitor() {
	// Eight single-hop paths: a 10 Mb/s link at 20 %..75 % utilization,
	// each with its own simulator shard.
	const paths = 8
	nets := make([]*experiments.Net, paths)
	for i := range nets {
		nets[i] = experiments.Topology{
			Hops:      1,
			TightCap:  10e6,
			TightUtil: 0.20 + 0.55*float64(i)/float64(paths-1),
			Seed:      100 + int64(i),
		}.Build()
	}

	store := tsstore.New(tsstore.Config{}) // per-path rings + digests
	// MonitorShards warms every shard in parallel and registers one
	// simulated prober per path (path-00 … path-07).
	mon, err := experiments.MonitorShards(nets, pathload.MonitorConfig{
		Workers:  4,                      // at most 4 paths probing at once
		Rounds:   3,                      // 3 measurements per path
		Interval: 100 * time.Millisecond, // virtual idle gap between rounds
		Jitter:   0.3,                    // desynchronize the fleet
		Seed:     7,
		Store:    store, // retain every sample alongside the channel
	})
	if err != nil {
		panic(err)
	}
	if err := mon.Start(); err != nil {
		panic(err)
	}

	// At is the path-local virtual time of each round, so per-path
	// series are reproducible.
	for s := range mon.Results() { // closed when every session finishes
		if s.Err != nil {
			fmt.Printf("%s round %d failed: %v\n", s.Path, s.Round, s.Err)
			continue
		}
		var i int
		fmt.Sscanf(s.Path, "path-%d", &i)
		fmt.Printf("%-7s r%d @%-7v true %5.2f Mb/s → %v\n",
			s.Path, s.Round, s.At.Round(time.Millisecond), nets[i].Topo.AvailBw()/1e6, s.Result)
	}
	mon.Wait()

	// The history outlives the channel: each path's series as a
	// windowed aggregate (store.Window(id, from, to) takes a span).
	for _, id := range store.Paths() {
		agg := store.Retained(id)
		fmt.Printf("%-7s %d pts  range [%5.2f, %5.2f]  mean %5.2f  p50 %5.2f Mb/s  ρ %.2f\n",
			id, agg.Count, agg.MinLo/1e6, agg.MaxHi/1e6,
			agg.MeanMid/1e6, agg.Quantile(0.5)/1e6, agg.RelVar)
	}
	// Unordered output:
	// path-00 r0 @0s      true  8.00 Mb/s → avail-bw [7.52, 9.78] Mb/s (grey [8.27, 9.03])
	// path-00 r1 @6.372s  true  8.00 Mb/s → avail-bw [8.75, 10.20] Mb/s (grey [9.47, 9.47])
	// path-00 r2 @10.519s true  8.00 Mb/s → avail-bw [8.91, 9.65] Mb/s
	// path-01 r0 @0s      true  7.21 Mb/s → avail-bw [7.41, 10.38] Mb/s (grey [8.89, 8.89])
	// path-01 r1 @4.209s  true  7.21 Mb/s → avail-bw [7.81, 9.38] Mb/s (grey [8.59, 8.59])
	// path-01 r2 @8.598s  true  7.21 Mb/s → avail-bw [5.37, 9.96] Mb/s (grey [6.13, 9.20])
	// path-02 r0 @0s      true  6.43 Mb/s → avail-bw [6.25, 8.59] Mb/s (grey [7.03, 7.81])
	// path-02 r1 @5.106s  true  6.43 Mb/s → avail-bw [5.93, 10.38] Mb/s (grey [7.41, 8.89])
	// path-02 r2 @9.489s  true  6.43 Mb/s → avail-bw [6.02, 9.03] Mb/s (grey [6.77, 8.27])
	// path-03 r0 @0s      true  5.64 Mb/s → avail-bw [5.46, 7.02] Mb/s (grey [6.24, 6.24])
	// path-03 r1 @8.913s  true  5.64 Mb/s → avail-bw [6.25, 7.81] Mb/s (grey [7.03, 7.03])
	// path-03 r2 @13.54s  true  5.64 Mb/s → avail-bw [4.59, 6.12] Mb/s (grey [5.36, 5.36])
	// path-04 r0 @0s      true  4.86 Mb/s → avail-bw [3.91, 7.03] Mb/s (grey [4.69, 6.25])
	// path-04 r1 @9.488s  true  4.86 Mb/s → avail-bw [4.24, 5.65] Mb/s (grey [4.94, 4.94])
	// path-04 r2 @17.097s true  4.86 Mb/s → avail-bw [4.34, 8.68] Mb/s (grey [5.79, 7.23])
	// path-05 r0 @0s      true  4.07 Mb/s → avail-bw [3.12, 7.02] Mb/s (grey [3.90, 6.24])
	// path-05 r1 @10.433s true  4.07 Mb/s → avail-bw [3.06, 6.12] Mb/s (grey [3.83, 5.36])
	// path-05 r2 @19.434s true  4.07 Mb/s → avail-bw [2.81, 7.03] Mb/s (grey [4.22, 5.62])
	// path-06 r0 @0s      true  3.29 Mb/s → avail-bw [1.48, 5.91] Mb/s (grey [2.95, 4.43])
	// path-06 r1 @10.339s true  3.29 Mb/s → avail-bw [2.29, 5.35] Mb/s (grey [3.06, 4.59])
	// path-06 r2 @24.615s true  3.29 Mb/s → avail-bw [1.53, 5.34] Mb/s (grey [2.29, 4.58])
	// path-07 r0 @0s      true  2.50 Mb/s → avail-bw [1.45, 7.27] Mb/s (grey [2.91, 5.82])
	// path-07 r1 @9.683s  true  2.50 Mb/s → avail-bw [1.43, 4.28] Mb/s (grey [2.86, 2.86])
	// path-07 r2 @19.706s true  2.50 Mb/s → avail-bw [1.44, 4.33] Mb/s (grey [2.89, 2.89])
	// path-00 3 pts  range [ 7.52, 10.20]  mean  9.13  p50  9.28 Mb/s  ρ 0.30
	// path-01 3 pts  range [ 5.37, 10.38]  mean  8.38  p50  8.59 Mb/s  ρ 0.64
	// path-02 3 pts  range [ 5.93, 10.38]  mean  7.70  p50  7.52 Mb/s  ρ 0.55
	// path-03 3 pts  range [ 4.59,  7.81]  mean  6.21  p50  6.24 Mb/s  ρ 0.52
	// path-04 3 pts  range [ 3.91,  8.68]  mean  5.64  p50  5.47 Mb/s  ρ 0.76
	// path-05 3 pts  range [ 2.81,  7.03]  mean  4.86  p50  4.92 Mb/s  ρ 0.86
	// path-06 3 pts  range [ 1.48,  5.91]  mean  3.65  p50  3.69 Mb/s  ρ 1.20
	// path-07 3 pts  range [ 1.43,  7.27]  mean  3.37  p50  2.89 Mb/s  ρ 1.34
}
