package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/crosstraffic"
	"repro/internal/fluid"
	"repro/internal/mrtg"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// A BaselinePoint compares the cprobe dispersion estimate, the pathload
// range, the fluid-model ADR prediction, and the true avail-bw at one
// load level — the quantitative form of the paper's §II argument that
// train dispersion measures ADR, not avail-bw.
type BaselinePoint struct {
	Util      float64
	TrueA     float64
	Cprobe    float64 // dispersion estimate
	FluidADR  float64 // analytical ADR of a saturating train
	PathloadL float64
	PathloadH float64
}

// BaselineComparison sweeps the tight-link load and measures with both
// instruments. Expected shape: pathload brackets A everywhere, while
// cprobe tracks the (higher) ADR and overestimates the avail-bw by an
// amount that grows with utilization.
func BaselineComparison(opt Options) []BaselinePoint {
	opt = opt.withDefaults()
	utils := []float64{0.2, 0.4, 0.6, 0.8}
	out := make([]BaselinePoint, len(utils))
	forRuns(len(utils), func(i int) {
		u := utils[i]
		topo := Topology{TightUtil: u, Seed: opt.runSeed(400 + i)}
		net := topo.Build()
		net.Warmup(warmup)
		prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)

		cp, err := baseline.Cprobe(prober)
		if err != nil {
			panic(fmt.Sprintf("experiments: baseline u=%v: %v", u, err))
		}
		pl, err := pathload.Run(prober, pathload.Config{})
		if err != nil {
			panic(fmt.Sprintf("experiments: baseline pathload u=%v: %v", u, err))
		}

		// Fluid ADR of a saturating MTU train through the topology.
		t := topo.withDefaults()
		a := t.TightCap * (1 - t.TightUtil)
		nontight := fluid.Link{C: t.Beta * a / (1 - t.NonTightUtil)}
		nontight.A = nontight.C * (1 - t.NonTightUtil)
		var fp fluid.Path
		for h := 0; h < t.Hops; h++ {
			if h == t.Hops/2 {
				fp = append(fp, fluid.Link{C: t.TightCap, A: a})
			} else {
				fp = append(fp, nontight)
			}
		}
		out[i] = BaselinePoint{
			Util:      u,
			TrueA:     a,
			Cprobe:    cp.Estimate,
			FluidADR:  fluid.ExitRate(120e6, fp),
			PathloadL: pl.Lo,
			PathloadH: pl.Hi,
		}
	})
	return out
}

// RenderBaseline formats the comparison.
func RenderBaseline(pts []BaselinePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Baseline (§II): cprobe train dispersion vs pathload (Mb/s)\n")
	fmt.Fprintf(&b, "%-8s %8s %10s %10s %22s\n", "u_t", "true A", "cprobe", "fluid ADR", "pathload range")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8.0f %8.2f %10.2f %10.2f [%8.2f, %8.2f ]\n",
			p.Util*100, mbps(p.TrueA), mbps(p.Cprobe), mbps(p.FluidADR), mbps(p.PathloadL), mbps(p.PathloadH))
	}
	fmt.Fprintf(&b, "cprobe tracks the ADR (between A and C), overestimating the avail-bw;\n")
	fmt.Fprintf(&b, "the overestimation grows with load, the paper's §II argument.\n")
	return b.String()
}

// A TimescaleCDF reports the avail-bw process spread at several
// averaging timescales for one traffic model.
type TimescaleCDF struct {
	Model  string
	Points []mrtg.TimescalePoint
}

// TimescaleVariance measures the ground-truth avail-bw process of the
// default tight link at increasing averaging timescales (§I: the
// variance of A(t, τ) decreases with τ; heavy-tailed traffic decays
// more slowly than Poisson).
func TimescaleVariance(opt Options) []TimescaleCDF {
	opt = opt.withDefaults()
	horizon := opt.window(120*netsim.Second, 20*netsim.Second)
	taus := []netsim.Time{
		10 * netsim.Millisecond,
		40 * netsim.Millisecond,
		160 * netsim.Millisecond,
		640 * netsim.Millisecond,
		2560 * netsim.Millisecond,
	}
	models := []struct {
		name string
		m    crosstraffic.Model
	}{{"poisson", crosstraffic.ModelPoisson}, {"pareto", crosstraffic.ModelPareto}}
	out := make([]TimescaleCDF, len(models))
	forRuns(len(models), func(i int) {
		model := models[i]
		topo := Topology{Seed: opt.runSeed(500 + i), Model: model.m}
		net := topo.Build()
		net.Warmup(warmup)
		mon := mrtg.NewMonitor(net.Sim, net.Tight(), 10*netsim.Millisecond)
		mon.Start()
		net.Sim.RunFor(horizon)
		mon.Stop()
		out[i] = TimescaleCDF{Model: model.name, Points: mon.VarianceByTimescale(taus)}
	})
	return out
}

// RenderTimescale formats the variance-vs-τ relation.
func RenderTimescale(cdfs []TimescaleCDF) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Avail-bw process variability vs averaging timescale τ (tight link, u=60%%)\n")
	fmt.Fprintf(&b, "%-10s %12s %14s %10s\n", "model", "τ", "σ(A) Mb/s", "windows")
	for _, c := range cdfs {
		for _, p := range c.Points {
			fmt.Fprintf(&b, "%-10s %12v %14.3f %10d\n", c.Model, p.Tau, p.StdDev/1e6, p.Windows)
		}
	}
	fmt.Fprintf(&b, "σ decreases with τ; the heavy-tailed model decays more slowly (§I).\n")
	return b.String()
}
