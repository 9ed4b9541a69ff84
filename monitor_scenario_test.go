package pathload_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/crosstraffic"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// scenarioPaths is the fleet size of the determinism scenario; the
// monitor must drive at least this many concurrent simulated paths.
const scenarioPaths = 64

// scenarioTopology derives path i's topology: capacities cycle through
// the paper's link classes and the utilization sweeps [0.15, 0.75], so
// every path has its own avail-bw ground truth.
func scenarioTopology(i int) experiments.Topology {
	caps := []float64{6.1e6, 10e6, 12.4e6, 24e6}
	return experiments.Topology{
		Hops:          1,
		TightCap:      caps[i%len(caps)],
		TightUtil:     0.15 + 0.60*float64(i)/float64(scenarioPaths-1),
		SourcesPerHop: 4,
		Model:         crosstraffic.ModelCBR,
		Seed:          1000 + int64(i),
	}
}

// runScenario builds the fleet, warms every shard in parallel on a
// lockstep clock, monitors all paths for two rounds, and returns the
// samples plus a canonical transcript (wall clocks excluded).
func runScenario(t *testing.T) ([]pathload.Sample, string) {
	t.Helper()
	nets := make([]*experiments.Net, scenarioPaths)
	sims := make([]*netsim.Simulator, scenarioPaths)
	for i := range nets {
		nets[i] = scenarioTopology(i).Build()
		sims[i] = nets[i].Sim
	}
	// Parallel warmup: 64 shards, one lockstep barrier.
	netsim.NewLockstep(0, sims...).AdvanceTo(2 * netsim.Second)

	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Workers:  8,
		Rounds:   2,
		Interval: 50 * time.Millisecond,
		Jitter:   0.3,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nets {
		p := simprobe.New(n.Sim, n.Links, 10*netsim.Millisecond)
		if err := m.AddPath(fmt.Sprintf("path-%02d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	var samples []pathload.Sample
	for s := range m.Results() {
		if s.Err != nil {
			t.Fatalf("%s round %d: %v", s.Path, s.Round, s.Err)
		}
		samples = append(samples, s)
	}
	m.Wait()

	sorted := append([]pathload.Sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Path != sorted[j].Path {
			return sorted[i].Path < sorted[j].Path
		}
		return sorted[i].Round < sorted[j].Round
	})
	var b strings.Builder
	for _, s := range sorted {
		r := s.Result
		fmt.Fprintf(&b, "%s r%d @%v [%.4f,%.4f] grey=%v[%.4f,%.4f] adr=%.4f fleets=%d elapsed=%v\n",
			s.Path, s.Round, s.At, r.Lo/1e6, r.Hi/1e6, r.GreySet, r.GreyLo/1e6, r.GreyHi/1e6,
			r.ADR/1e6, len(r.Fleets), r.Elapsed)
	}
	return samples, b.String()
}

// TestMonitorScenario64Paths is the headline scenario: 64 concurrent
// simulated paths with known per-path cross traffic must converge to
// their own avail-bw ranges, and the whole transcript must be
// byte-identical across independent runs (fresh simulators, same
// seeds) regardless of goroutine scheduling.
//
// "Converge" is a population rate, not 128 of 128. On this topology
// family — four CBR sources a hop — a fleet's streams can alias with
// the phase of the coarse cross traffic and overestimate by ≈ 3 Mb/s;
// the repository benchmark's fleet_shards workload measures a stable
// 0.973 bracketing share over 4 seeds × 2304 path-rounds. Which
// path-rounds miss depends on when each fleet starts, so demanding
// zero misses pins a lucky seed rather than a property: anything that
// shifts fleet start times (fleets now end as soon as they are
// decided) moves the handful of misses elsewhere. The floor asserted
// is the share a healthy estimator keeps with margin for 128 samples.
func TestMonitorScenario64Paths(t *testing.T) {
	samples, transcript := runScenario(t)

	if len(samples) != 2*scenarioPaths {
		t.Fatalf("%d samples, want %d", len(samples), 2*scenarioPaths)
	}
	slack := pathload.DefaultResolution + pathload.DefaultGreyResolution
	bracketed := 0
	for _, s := range samples {
		var i int
		fmt.Sscanf(s.Path, "path-%d", &i)
		a := scenarioTopology(i).AvailBw()
		if s.Result.Lo-slack > a || s.Result.Hi+slack < a {
			t.Logf("%s round %d: range [%.2f, %.2f] Mb/s misses true avail-bw %.2f Mb/s",
				s.Path, s.Round, s.Result.Lo/1e6, s.Result.Hi/1e6, a/1e6)
			continue
		}
		bracketed++
	}
	if share := float64(bracketed) / float64(len(samples)); share < 0.95 {
		t.Errorf("%d of %d path-rounds bracket their true avail-bw (%.3f), want at least 0.95", bracketed, len(samples), share)
	}

	_, again := runScenario(t)
	if transcript != again {
		t.Errorf("transcripts differ between runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", transcript, again)
	}
}
