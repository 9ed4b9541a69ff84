package experiments

// A Figure is one row of the evaluation this repository reproduces:
// everything cmd/repro's -fig, -all, help text and per-figure footer
// know about it.
type Figure struct {
	Keys  []string // -fig selectors; -all runs the first
	Label string   // what the per-figure footer calls it
	InAll bool     // part of -all (the 10k-path tier takes minutes)
	Run   func(Options) string
}

// Figures is the one list of figures: the paper's Figs. 1–18, the §II
// cprobe comparison and the §I timescale study, then the fleet
// experiments. The tests render their rows by key from it.
var Figures = []Figure{
	{[]string{"1", "2", "3"}, "figs 1-3", true, func(o Options) string { return RenderOWDTraces(OWDTraces(o)) }},
	{[]string{"5"}, "fig 5", true, func(o Options) string {
		return RenderAccuracy("Fig 5: accuracy vs tight-link load and traffic model", Fig5(o))
	}},
	{[]string{"6"}, "fig 6", true, func(o Options) string {
		return RenderAccuracy("Fig 6: accuracy vs non-tight-link load (A = 4 Mb/s throughout)", Fig6(o))
	}},
	{[]string{"7"}, "fig 7", true, func(o Options) string {
		return RenderAccuracy("Fig 7: accuracy vs path tightness factor β (A = 4 Mb/s)", Fig7(o))
	}},
	{[]string{"8"}, "fig 8", true, func(o Options) string {
		return RenderSensitivity("Fig 8: effect of fleet fraction f (single runs)", "f", Fig8(o))
	}},
	{[]string{"9"}, "fig 9", true, func(o Options) string {
		return RenderSensitivity("Fig 9: effect of the PDT threshold (PDT-only detection)", "thresh", Fig9(o))
	}},
	{[]string{"10"}, "fig 10", true, func(o Options) string { return RenderVerification(Fig10(o)) }},
	{[]string{"11"}, "fig 11", true, func(o Options) string {
		return RenderDynamics("Fig 11: avail-bw variability vs tight-link load (C_t = 12.4 Mb/s)", Fig11(o))
	}},
	{[]string{"12"}, "fig 12", true, func(o Options) string {
		return RenderDynamics("Fig 12: variability vs statistical multiplexing (u ≈ 65%)", Fig12(o))
	}},
	{[]string{"13"}, "fig 13", true, func(o Options) string {
		return RenderDynamics("Fig 13: variability vs stream length K", Fig13(o))
	}},
	{[]string{"14"}, "fig 14", true, func(o Options) string {
		return RenderDynamics("Fig 14: variability vs fleet length N", Fig14(o))
	}},
	{[]string{"15", "16"}, "figs 15-16", true, func(o Options) string { return RenderBTC(Fig15and16(o)) }},
	{[]string{"17", "18"}, "figs 17-18", true, func(o Options) string { return RenderIntrusive(Fig17and18(o)) }},
	{[]string{"baseline"}, "fig baseline", true, func(o Options) string { return RenderBaseline(BaselineComparison(o)) }},
	{[]string{"timescale"}, "fig timescale", true, func(o Options) string { return RenderTimescale(TimescaleVariance(o)) }},
	{[]string{"scale"}, "dynamics at scale", true, func(o Options) string { return RenderScale(DynamicsAtScale(o)) }},
	{[]string{"scale10k"}, "dynamics at 10k paths", false, func(o Options) string { return RenderScaleSummary(DynamicsAtScale10k(o)) }},
	{[]string{"trajectory"}, "avail-bw trajectories", true, func(o Options) string { return RenderTrajectory(AvailBwTrajectory(o)) }},
	{[]string{"contention"}, "fleet self-interference", true, func(o Options) string { return RenderContention(Contention(o)) }},
	{[]string{"adaptive"}, "adaptive scheduling", true, func(o Options) string { return RenderAdaptive(AdaptiveSchedule(o)) }},
	{[]string{"scenarios"}, "scenario grading matrix", true, func(o Options) string { return RenderScenarios(Scenarios(o)) }},
	{[]string{"fleetscenarios"}, "sequenced fleet scenarios", true, func(o Options) string { return RenderFleetScenarios(FleetScenarios(o)) }},
}

// FigureByKey returns the row of Figures that key selects.
func FigureByKey(key string) (Figure, bool) {
	for _, f := range Figures {
		for _, k := range f.Keys {
			if k == key {
				return f, true
			}
		}
	}
	return Figure{}, false
}
