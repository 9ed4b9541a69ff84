package experiments

import (
	"fmt"
	"testing"

	"repro/internal/crosstraffic"
	"repro/internal/netsim"
	"repro/internal/simprobe"
	"repro/internal/stats"

	pathload "repro"
)

// TestCalibrationAcrossLoads is a mini Fig-5: across utilizations and
// both traffic models it checks that the mean reported range brackets
// the true avail-bw and that the range center is not badly biased.
func TestCalibrationAcrossLoads(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run calibration is slow")
	}
	t.Parallel() // pool these cells with the other parallel group's
	const runs = 10
	for _, model := range []crosstraffic.Model{crosstraffic.ModelPoisson, crosstraffic.ModelPareto} {
		for _, util := range []float64{0.2, 0.4, 0.6, 0.8} {
			// The eight cells are independent simulations: run them as
			// parallel subtests so the package uses both cores.
			t.Run(fmt.Sprintf("%v/u=%.0f%%", model, util*100), func(t *testing.T) {
				t.Parallel()
				var los, his []float64
				a := 10e6 * (1 - util)
				for r := 0; r < runs; r++ {
					net := Topology{Model: model, TightUtil: util, Seed: int64(1000*r + 17)}.Build()
					net.Warmup(3 * netsim.Second)
					prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
					res, err := pathload.Run(prober, pathload.Config{})
					if err != nil {
						t.Fatalf("run %d: %v", r, err)
					}
					los = append(los, res.Lo)
					his = append(his, res.Hi)
				}
				lo, hi := stats.Mean(los), stats.Mean(his)
				mid := (lo + hi) / 2
				t.Logf("A=%.1f Mb/s, mean range [%.2f, %.2f], center %.2f (bias %+.0f%%)",
					a/1e6, lo/1e6, hi/1e6, mid/1e6, (mid-a)/a*100)
				if lo > a || hi < a {
					t.Errorf("mean range [%.2f, %.2f] Mb/s misses A=%.1f", lo/1e6, hi/1e6, a/1e6)
				}
				if bias := (mid - a) / a; bias > 0.45 || bias < -0.45 {
					t.Errorf("center bias %+.0f%% too large", bias*100)
				}
			})
		}
	}
}
