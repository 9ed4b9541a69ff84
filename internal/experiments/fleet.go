package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// reverseDelay is the modeled reverse-path delay of every simulated
// prober.
const reverseDelay = 10 * netsim.Millisecond

// PathID names path i of a shard fleet: its monitor path ID and its
// key in any store the monitor feeds.
func PathID(i int) string { return fmt.Sprintf("path-%02d", i) }

// MonitorShards is the harness of every monitored-fleet experiment —
// the paper's §VI dynamics procedure at fleet breadth. The fleet is
// independent paths, each a built Topology on its own private
// simulator, so paths never contend and every series is deterministic
// whatever the host's scheduling. It warms every shard to steady state
// on the run pool (forRuns) — traffic the caller attached to a Net
// beforehand runs through the warm-up — then wires an unstarted
// pathload.Monitor over one simprobe prober per shard, path i
// registered as PathID(i). The caller starts and owns the monitor;
// collectRun is the usual way to run it out.
func MonitorShards(nets []*Net, cfg pathload.MonitorConfig) (*pathload.Monitor, error) {
	mon, err := pathload.NewMonitor(cfg)
	if err != nil {
		return nil, err
	}
	forRuns(len(nets), func(i int) { nets[i].Warmup(warmup) })
	for i, n := range nets {
		if err := mon.AddPath(PathID(i), simprobe.New(n.Sim, n.Links, reverseDelay)); err != nil {
			return nil, err
		}
	}
	return mon, nil
}

// collectRun starts the monitor, drains its results, and waits it out.
// Samples come back in completion order, failed rounds included.
func collectRun(mon *pathload.Monitor) []pathload.Sample {
	if err := mon.Start(); err != nil {
		panic(fmt.Sprintf("experiments: monitored fleet: %v", err))
	}
	var samples []pathload.Sample
	for sm := range mon.Results() {
		samples = append(samples, sm)
	}
	mon.Wait()
	return samples
}

// collectClean is collectRun for fleets in which no round may fail.
func collectClean(mon *pathload.Monitor) []pathload.Sample {
	samples := collectRun(mon)
	for _, sm := range samples {
		if sm.Err != nil {
			panic(fmt.Sprintf("experiments: monitored fleet: %s round %d: %v", sm.Path, sm.Round, sm.Err))
		}
	}
	return samples
}
