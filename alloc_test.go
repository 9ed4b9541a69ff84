package pathload_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"

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
	// freelists and the scratch; after it, the event freelist grows on
	// the second and fourth runs, the scratch's fleet list on the third
	// (the first with five fleets), and a link ring, which holds its
	// peak backlog and nothing more, takes a new 16-element chunk on
	// the fourth and on the fifth (a per-site MemProfileRate = 1 diff of
	// each run shows eventq.(*Queue).ScheduleReserved and Recycle, and
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
