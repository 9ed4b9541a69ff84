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
	run() // sizes the prober's arena and the simulator's freelists
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
