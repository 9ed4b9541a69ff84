package netsim_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsim"
)

// TestForwardingAllocationFree holds the simulator's hot path at zero
// allocations: on the warmed default 5-hop topology with cross traffic,
// advancing the clock schedules, fires and recycles events, creates and
// frees packets, and runs every link stage without touching the heap
// (event freelist, packet freelist, prebound link callbacks). Losing any
// of those shows here long before it shows as a slowdown.
func TestForwardingAllocationFree(t *testing.T) {
	net := experiments.Topology{Seed: 1}.Build()
	net.Warmup(3 * netsim.Second) // freelists and rings grow until queues have seen their peaks
	before := net.Sim.Events()
	allocs := testing.AllocsPerRun(10, func() {
		net.Sim.RunFor(100 * netsim.Millisecond)
	})
	if net.Sim.Events() == before {
		t.Fatal("the timed window fired no events; the test measures nothing")
	}
	if allocs != 0 {
		t.Fatalf("steady-state forwarding allocates %.1f objects per 100 ms window, want 0", allocs)
	}
}
