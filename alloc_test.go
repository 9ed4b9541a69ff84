package pathload_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/crosstraffic"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"
	"repro/internal/tsstore"

	pathload "repro"
)

// TestRunAllocationBudget: on a warmed simulator a whole measurement
// allocates what it returns and nothing else: its run-scoped working
// memory comes from a pool, and nothing is allocated per stream or per
// fleet.
func TestRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	net := experiments.Topology{Seed: 1}.Build()
	net.Warmup(3 * netsim.Second)
	p := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
	var res pathload.Result
	run := func() {
		var err error
		if res, err = pathload.Run(p, pathload.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	// The counter is process-wide, so the simulator and the pooled
	// scratch must be past their own amortised growth before the one
	// measured run. The first run sizes the prober's arena, most
	// freelists, the event queue's same-instant heap and the scratch;
	// after it, the event freelist grows on the second and fourth runs
	// (fresh events; a recycled one is linked in through its own
	// field, so Recycle never allocates), the scratch's fleet list on
	// the third (the first with five fleets), and a link ring, which
	// holds its peak backlog and nothing more, takes a new 16-element
	// chunk on the fourth and on the fifth (a per-site MemProfileRate =
	// 1 diff of each run shows eventq.(*Queue).ScheduleReserved, and
	// netsim.(*ring).push under Link.arrive, and nothing under Run
	// beyond its three objects); the simulation is seeded, so which run
	// pays is fixed. Four warm-ups plus AllocsPerRun's own make the
	// measured run the sixth, which is clean (the next growth is four
	// fresh packets on the seventh). If this fails after simulated
	// timing moved, take that profile before touching the count.
	for range 4 {
		run()
	}
	allocs := testing.AllocsPerRun(1, run)

	if fleets := len(res.Fleets); fleets < 2 {
		t.Fatalf("the run took %d fleets; the budget needs a search to measure", fleets)
	}
	const want = 1 + // the controller
		1 + // Result.Fleets, exact size
		1 // every fleet's Streams, windows of one exact-size array
	if int(allocs) != want {
		t.Fatalf("Run allocated %v objects over %d fleets, want %d at any fleet count", allocs, len(res.Fleets), want)
	}
}

// TestFleetRoundAllocationBudget holds what a monitored fleet allocates
// per path-round, the unit in which memory limits how many paths one
// process can watch. The fleet has fleet_shards' shape at 16 paths:
// one-hop shards under 4 CBR sources, each on its own simulator,
// through a Monitor for 2 rounds into a tsstore sink. The budget is the
// measured 13.23 kB plus 10 %; a store ring that starts at 64 points
// breaks it (17.6 kB with that, a second K-slot buffer per prober and a
// 96-byte Packet; TestStreamArenaAllocationBudget and TestPacketLayout
// hold the smaller two). The section from Start to Wait runs with the
// collector off, so no pooled scratch is dropped mid-fleet, after one
// unmeasured fleet has filled the pools; skipped under -race, where
// sync.Pool drops Puts.
func TestFleetRoundAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const (
		shards, rounds = 16, 2
		measured       = 13_230 // bytes per path-round
		budget         = measured * 11 / 10
	)
	caps := []float64{6.1e6, 10e6, 12.4e6, 24e6}
	fleet := func() (perPathRound float64) {
		nets := make([]*experiments.Net, shards)
		for i := range nets {
			nets[i] = experiments.Topology{Hops: 1, TightCap: caps[i%len(caps)], TightUtil: 0.15 + 0.60*float64(i)/(shards-1),
				SourcesPerHop: 4, Model: crosstraffic.ModelCBR, Seed: 1 + int64(i)*7_919_317}.Build()
		}
		mon, err := experiments.MonitorShards(nets, pathload.MonitorConfig{Workers: 2, Rounds: rounds,
			Interval: 100 * time.Millisecond, Jitter: 0.3, Seed: 1, Store: tsstore.New(tsstore.Config{}), Buffer: shards * rounds})
		if err != nil {
			t.Fatal(err)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := mon.Start(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for range mon.Results() {
			n++
		}
		mon.Wait()
		runtime.ReadMemStats(&after)
		if n != shards*rounds {
			t.Fatalf("the fleet returned %d samples, want %d", n, shards*rounds)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	fleet()
	if got := fleet(); got > budget {
		t.Fatalf("a fleet round allocates %.0f B per path, want ≤ %d (%d measured + 10 %%)", got, budget, measured)
	}
}
