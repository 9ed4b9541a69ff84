package pathload_test

import (
	"math/bits"
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// TestRunAllocationBudget: on a warmed simulator a whole measurement
// allocates what it returns plus its run-scoped working memory, and
// nothing per stream.
func TestRunAllocationBudget(t *testing.T) {
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
	// The counter is process-wide, so the simulator must be past its own
	// amortised growth before the one measured run. The first run sizes
	// the prober's arena and most freelists, but a link's in-service ring
	// holds its peak backlog and nothing more, so a new peak doubles one:
	// on the third, fourth and fifth runs here, with the event freelist
	// growing on the fourth (a per-site MemProfileRate = 1 diff of each
	// run shows netsim.(*ring).push under Link.arrive and
	// eventq.(*Queue).ScheduleReserved, and nothing under Run beyond the
	// formula); the simulation is seeded, so which run pays is fixed.
	// Four warm-ups plus AllocsPerRun's own make the measured run the
	// sixth, which is clean (the next growth is four fresh packets on the
	// seventh and a doubling on the ninth). If this fails after simulated
	// timing moved, take that profile before touching the count.
	for range 4 {
		run()
	}
	allocs := testing.AllocsPerRun(1, run)

	fleets := len(res.Fleets)
	if fleets < 2 {
		t.Fatalf("the run took %d fleets; the budget needs a search to measure", fleets)
	}
	want := 1 + // the controller
		2 + // the scratch: one float array for OWDs and medians, one for stream kinds
		fleets + // one Streams per fleet
		bits.Len(uint(fleets-1)) + 1 // Result.Fleets growing by append: 1, 2, 4, ...
	if int(allocs) != want {
		t.Fatalf("Run allocated %v objects over %d fleets, want %d", allocs, fleets, want)
	}
}
