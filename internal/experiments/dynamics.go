package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/crosstraffic"
	"repro/internal/stats"

	pathload "repro"
)

// A DynamicsCDF summarizes the relative-variation metric ρ (Eq. 12)
// across many pathload runs of one condition — one curve of the
// paper's Figs. 11–14.
type DynamicsCDF struct {
	Label string
	Rhos  []float64 // one ρ per run
	// Deciles holds the {5, 15, ..., 95} percentiles the paper plots.
	Deciles []float64
	Runs    int
}

// paperDynamicsRuns is the per-condition run count of §VI.
const paperDynamicsRuns = 110

// dynamicsDeciles are the percentiles the paper plots.
var dynamicsDeciles = []float64{5, 15, 25, 35, 45, 55, 65, 75, 85, 95}

// rhoSweep collects ρ across runs of per-run topologies.
func rhoSweep(opt Options, label string, runsFull int, mkTopo func(run int, rng *rand.Rand) Topology, cfg pathload.Config) DynamicsCDF {
	opt = opt.withDefaults()
	runs := opt.runs(runsFull)
	d := DynamicsCDF{Label: label, Rhos: make([]float64, runs), Runs: runs}
	forRuns(runs, func(r int) {
		rng := rand.New(rand.NewSource(opt.runSeed(r) ^ 0x5eed))
		topo := mkTopo(r, rng)
		topo.Seed = opt.runSeed(r)
		res, _, err := measureOnce(topo, cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: dynamics %q run %d: %v", label, r, err))
		}
		d.Rhos[r] = res.RelVar()
	})
	d.Deciles = stats.Percentiles(d.Rhos, dynamicsDeciles)
	return d
}

// dynTightCap is the tight link capacity of the §VI-A path (the paper's
// 12.4 Mb/s university access link).
const dynTightCap = 12.4e6

// Fig11 reproduces Fig. 11: variability of the avail-bw versus tight
// link load. Each run draws the utilization uniformly from its band.
// Expected shape: ρ grows strongly with utilization — roughly five
// times higher at 75–85% than at 20–30%.
func Fig11(opt Options) []DynamicsCDF {
	bands := []struct{ lo, hi float64 }{{0.20, 0.30}, {0.40, 0.50}, {0.75, 0.85}}
	var out []DynamicsCDF
	for _, b := range bands {
		label := fmt.Sprintf("u=%.0f-%.0f%%", b.lo*100, b.hi*100)
		out = append(out, rhoSweep(opt, label, paperDynamicsRuns, func(run int, rng *rand.Rand) Topology {
			u := b.lo + rng.Float64()*(b.hi-b.lo)
			return Topology{TightCap: dynTightCap, TightUtil: u, Model: crosstraffic.ModelPareto}
		}, pathload.Config{}))
	}
	return out
}

// Fig12 reproduces Fig. 12: variability versus the degree of
// statistical multiplexing. Three paths run at the same ≈65%
// utilization but with tight links of different capacity and source
// counts; the per-flow share shrinks as capacity grows, so the
// aggregate smooths and ρ drops.
func Fig12(opt Options) []DynamicsCDF {
	paths := []struct {
		label   string
		cap     float64
		sources int
	}{
		{"path A (155 Mb/s)", 155e6, 100},
		{"path B (12.4 Mb/s)", 12.4e6, 30},
		{"path C (6.1 Mb/s)", 6.1e6, 10},
	}
	var out []DynamicsCDF
	for _, p := range paths {
		out = append(out, rhoSweep(opt, p.label, paperDynamicsRuns, func(run int, rng *rand.Rand) Topology {
			u := 0.60 + rng.Float64()*0.10 // "roughly the same (around 65%)"
			return Topology{
				TightCap:      p.cap,
				TightUtil:     u,
				SourcesPerHop: p.sources,
				Model:         crosstraffic.ModelPareto,
			}
		}, pathload.Config{}))
	}
	return out
}

// Fig13 reproduces Fig. 13: variability versus the stream length K.
// Longer streams average the avail-bw over a wider timescale τ = K·T,
// so the measured variability drops.
func Fig13(opt Options) []DynamicsCDF {
	var out []DynamicsCDF
	for _, k := range []int{100, 200, 1000} {
		label := fmt.Sprintf("K=%d", k)
		out = append(out, rhoSweep(opt, label, paperDynamicsRuns, func(run int, rng *rand.Rand) Topology {
			return Topology{TightCap: dynTightCap, TightUtil: 0.64, Model: crosstraffic.ModelPareto}
		}, pathload.Config{PacketsPerStream: k}))
	}
	return out
}

// Fig14 reproduces Fig. 14: variability versus the fleet length N.
// Longer fleets watch the avail-bw process for longer, so the grey
// region — and hence ρ — widens, while the run-to-run variation of the
// range shrinks (a steeper CDF). N bounds the fleet duration rather
// than fixing it: a fleet stops once its outcome is decided, so a clear
// fleet lasts ⌈f·N⌉ streams (9, 17, 34 here) and only a contested one
// approaches N. The durations still scale with N, and it is the
// contested fleets — the ones that run long — that make the grey
// region, so the figure's shape is unchanged.
func Fig14(opt Options) []DynamicsCDF {
	var out []DynamicsCDF
	for _, n := range []int{12, 24, 48} {
		label := fmt.Sprintf("N=%d", n)
		out = append(out, rhoSweep(opt, label, paperDynamicsRuns, func(run int, rng *rand.Rand) Topology {
			return Topology{TightCap: dynTightCap, TightUtil: 0.65, Model: crosstraffic.ModelPareto}
		}, pathload.Config{StreamsPerFleet: n}))
	}
	return out
}
