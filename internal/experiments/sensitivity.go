package experiments

import (
	"fmt"

	pathload "repro"
)

// A SensitivityPoint is one row of the paper's Figs. 8–9: the range
// reported by a single pathload run at one parameter setting.
type SensitivityPoint struct {
	Param          float64 // the swept parameter (f, or the PDT threshold)
	Lo, Hi         float64 // reported range, bits/s
	GreyLo, GreyHi float64
	GreySet        bool
	TrueA          float64
}

// Width returns Hi − Lo.
func (p SensitivityPoint) Width() float64 { return p.Hi - p.Lo }

// sensitivitySweep runs pathload once per parameter value, each run on
// the same topology seeded by runSeed(seedRun) with cfgOf(value): the
// one loop of Figs. 8 and 9. what names the figure and parameter in a
// run's panic.
func sensitivitySweep(opt Options, what string, seedRun int, params []float64, cfgOf func(float64) pathload.Config) []SensitivityPoint {
	opt = opt.withDefaults()
	topo := Topology{Seed: opt.runSeed(seedRun)}
	out := make([]SensitivityPoint, len(params))
	forRuns(len(params), func(i int) {
		res, _, err := measureOnce(topo, cfgOf(params[i]))
		if err != nil {
			panic(fmt.Sprintf("experiments: %s=%v: %v", what, params[i], err))
		}
		out[i] = SensitivityPoint{
			Param: params[i], Lo: res.Lo, Hi: res.Hi,
			GreyLo: res.GreyLo, GreyHi: res.GreyHi, GreySet: res.GreySet,
			TrueA: topo.AvailBw(),
		}
	})
	return out
}

// Fig8 reproduces Fig. 8: the effect of the fleet agreement fraction f
// on the reported range. Each point is a single pathload run (as in the
// paper). A larger f demands more stream agreement before a fleet is
// declared increasing or non-increasing, so the grey region — and with
// it the reported range — widens with f.
func Fig8(opt Options) []SensitivityPoint {
	return sensitivitySweep(opt, "fig8 f", 80, []float64{0.55, 0.65, 0.75, 0.85, 0.95},
		func(f float64) pathload.Config { return pathload.Config{FleetFraction: f} })
}

// Fig9 reproduces Fig. 9: the effect of the PDT decision threshold when
// PDT is the only metric (two-zone: non-increasing exactly below the
// threshold). Small thresholds mark nearly every stream increasing and
// drive the estimate toward zero (underestimation); large thresholds
// mark nearly every stream non-increasing and drive it toward the probe
// ceiling (overestimation); intermediate values recover the avail-bw.
func Fig9(opt Options) []SensitivityPoint {
	return sensitivitySweep(opt, "fig9 thr", 90, []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95},
		func(thr float64) pathload.Config {
			return pathload.Config{DisablePCT: true, PDTIncreasing: thr, PDTNonIncreasing: thr}
		})
}
