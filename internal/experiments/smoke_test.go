package experiments

import (
	"testing"

	"repro/internal/crosstraffic"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// TestPathloadConvergesOnDefaultTopology is the headline integration
// check: on the paper's default simulation topology (A = 4 Mb/s) the
// reported range must bracket, or land within one resolution step of,
// the true avail-bw.
func TestPathloadConvergesOnDefaultTopology(t *testing.T) {
	for _, model := range []crosstraffic.Model{crosstraffic.ModelPoisson, crosstraffic.ModelPareto} {
		t.Run(model.String(), func(t *testing.T) {
			net := Topology{Model: model, Seed: 42}.Build()
			net.Warmup(2 * netsim.Second)
			prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)

			res, err := pathload.Run(prober, pathload.Config{})
			if err != nil {
				t.Fatalf("pathload.Run: %v", err)
			}
			a := net.Topo.AvailBw()
			t.Logf("true A = %.2f Mb/s, reported %v after %d fleets (elapsed %v)",
				a/1e6, res, len(res.Fleets), res.Elapsed)
			if !pathload.Brackets(res.Lo, res.Hi, a, pathload.Config{}.Slack()) {
				t.Errorf("reported range [%.2f, %.2f] Mb/s misses true avail-bw %.2f Mb/s",
					res.Lo/1e6, res.Hi/1e6, a/1e6)
			}
		})
	}
}
