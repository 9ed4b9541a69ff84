// Monitor: turn one-shot measurements into streaming avail-bw time
// series over many paths at once. Builds eight simulated paths with
// different loads, wires them to a pathload.Monitor with
// experiments.MonitorShards, and watches three rounds of per-path
// ranges arrive on the results channel — the paper's "dynamics"
// viewpoint (§VI) as a long-running service. A tsstore.Store rides
// along as the monitor's Store sink, retaining every sample, and the
// example ends by reading the windowed aggregates (min/max/mean, ρ,
// median) back out of the store.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/experiments"
	"repro/internal/tsstore"

	pathload "repro"
)

func main() {
	// Eight single-hop paths: a 10 Mb/s link at 20%..75% utilization,
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
	// MonitorShards warms every shard to steady state in parallel, on
	// one lockstep virtual clock, and registers one simulated prober
	// per path (path-00 … path-07).
	mon, err := experiments.MonitorShards(nets, pathload.MonitorConfig{
		Workers:  4,                      // at most 4 paths probing at once
		Rounds:   3,                      // 3 measurements per path
		Interval: 100 * time.Millisecond, // virtual idle gap between rounds
		Jitter:   0.3,                    // desynchronize the fleet
		Seed:     7,
		Store:    store, // retain every sample alongside the channel
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		log.Fatal(err)
	}

	// Samples stream in completion order; At is the path-local virtual
	// time of each round, so per-path series are reproducible.
	for s := range mon.Results() {
		if s.Err != nil {
			log.Printf("%s round %d failed: %v", s.Path, s.Round, s.Err)
			continue
		}
		var i int
		fmt.Sscanf(s.Path, "path-%d", &i)
		fmt.Printf("%-7s r%d @%-7v true %5.2f Mb/s → %v\n",
			s.Path, s.Round, s.At.Round(time.Millisecond), nets[i].Topo.AvailBw()/1e6, s.Result)
	}
	mon.Wait()

	// The channel is gone, the history is not: read each path's series
	// back from the store as a windowed aggregate — the §VI summary
	// (observed variation range, mean estimate, median, windowed ρ).
	// store.Handler() would serve the same data over HTTP; see
	// `pathload -monitor -export`.
	fmt.Printf("\nretained series:\n")
	for _, id := range store.Paths() {
		agg := store.Retained(id)
		fmt.Printf("%-7s %d pts  range [%5.2f, %5.2f]  mean %5.2f  p50 %5.2f Mb/s  ρ %.2f\n",
			id, agg.Count, agg.MinLo/1e6, agg.MaxHi/1e6,
			agg.MeanMid/1e6, agg.Quantile(0.5)/1e6, agg.RelVar)
	}
}
