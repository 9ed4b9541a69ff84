package experiments

import (
	"fmt"

	"repro/internal/crosstraffic"
	"repro/internal/stats"

	pathload "repro"
)

// An AccuracyPoint is one bar of the paper's Figs. 5–7: the mean
// pathload range over many runs of one simulated condition, compared
// with the configured avail-bw.
type AccuracyPoint struct {
	Label  string  // condition, e.g. "pareto u_t=60%"
	Param  float64 // swept parameter value
	TrueA  float64 // configured end-to-end avail-bw, bits/s
	MeanLo float64 // mean of reported lower bounds
	MeanHi float64 // mean of reported upper bounds
	CoVLo  float64 // coefficient of variation of the lower bounds
	CoVHi  float64
	Runs   int
	// Contained reports whether the mean range brackets TrueA, the
	// paper's headline accuracy criterion.
	Contained bool
	// CenterErr is (center − TrueA)/TrueA.
	CenterErr float64
}

// paperFig5Runs is the per-condition run count of §V-A.
const paperFig5Runs = 50

type accuracyCase struct {
	label string
	param float64
	topo  Topology
}

// accuracySweep runs pathload repeatedly per case and aggregates. All
// cases' runs form one pool: run j is case j/runs's run j%runs.
func accuracySweep(opt Options, cases []accuracyCase, runsFull int) []AccuracyPoint {
	opt = opt.withDefaults()
	runs := opt.runs(runsFull)
	los, his := make([]float64, len(cases)*runs), make([]float64, len(cases)*runs)
	forRuns(len(los), func(j int) {
		ci, r := j/runs, j%runs
		topo := cases[ci].topo
		topo.Seed = opt.runSeed(ci*1000 + r)
		res, _, err := measureOnce(topo, pathload.Config{})
		if err != nil {
			panic(fmt.Sprintf("experiments: accuracy sweep %q run %d: %v", cases[ci].label, r, err))
		}
		los[j], his[j] = res.Lo, res.Hi
	})
	out := make([]AccuracyPoint, 0, len(cases))
	for ci, c := range cases {
		lo, hi := los[ci*runs:(ci+1)*runs], his[ci*runs:(ci+1)*runs]
		a := c.topo.AvailBw()
		p := AccuracyPoint{
			Label:  c.label,
			Param:  c.param,
			TrueA:  a,
			MeanLo: stats.Mean(lo),
			MeanHi: stats.Mean(hi),
			CoVLo:  stats.CoV(lo),
			CoVHi:  stats.CoV(hi),
			Runs:   runs,
		}
		p.Contained = p.MeanLo <= a && a <= p.MeanHi
		p.CenterErr = ((p.MeanLo+p.MeanHi)/2 - a) / a
		out = append(out, p)
	}
	return out
}

// Fig5 reproduces the paper's Fig. 5: pathload accuracy across tight
// link utilizations 20–80% under Poisson and heavy-tailed Pareto cross
// traffic. The expected shape: every mean range brackets the true
// avail-bw, with Pareto ranges somewhat wider.
func Fig5(opt Options) []AccuracyPoint {
	var cases []accuracyCase
	for _, model := range []crosstraffic.Model{crosstraffic.ModelPoisson, crosstraffic.ModelPareto} {
		for _, u := range []float64{0.2, 0.4, 0.6, 0.8} {
			cases = append(cases, accuracyCase{
				label: fmt.Sprintf("%v u_t=%.0f%%", model, u*100),
				param: u,
				topo:  Topology{Model: crosstraffic.ModelPareto, TightUtil: u},
			})
			cases[len(cases)-1].topo.Model = model
		}
	}
	return accuracySweep(opt, cases, paperFig5Runs)
}

// Fig6 reproduces Fig. 6: accuracy as the *non-tight* links' load u_nt
// sweeps 20–80% for two path lengths. The end-to-end avail-bw stays
// 4 Mb/s throughout; the expectation is that non-tight queueing adds
// OWD noise but does not break the estimate (centers within ~10%).
func Fig6(opt Options) []AccuracyPoint {
	var cases []accuracyCase
	for _, h := range []int{3, 6} {
		for _, u := range []float64{0.2, 0.4, 0.6, 0.8} {
			cases = append(cases, accuracyCase{
				label: fmt.Sprintf("h=%d u_nt=%.0f%%", h, u*100),
				param: u,
				topo:  Topology{Hops: h, NonTightUtil: u, Model: crosstraffic.ModelPareto},
			})
		}
	}
	return accuracySweep(opt, cases, paperFig5Runs)
}

// Fig7 reproduces Fig. 7: accuracy versus the path tightness factor
// β = A_nt/A. With β well above 1 there is a single tight link and the
// range brackets A; as β → 1 every link becomes tight and pathload
// systematically underestimates, more severely on the longer path —
// the paper's one documented failure mode.
func Fig7(opt Options) []AccuracyPoint {
	var cases []accuracyCase
	for _, h := range []int{3, 6} {
		for _, beta := range []float64{4, 2, 1.33, 1} {
			cases = append(cases, accuracyCase{
				label: fmt.Sprintf("h=%d beta=%.2f", h, beta),
				param: beta,
				topo:  Topology{Hops: h, Beta: beta, Model: crosstraffic.ModelPareto},
			})
		}
	}
	return accuracySweep(opt, cases, paperFig5Runs)
}
