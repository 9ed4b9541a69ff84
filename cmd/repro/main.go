// Command repro regenerates the figures of Jain & Dovrolis, "End-to-End
// Available Bandwidth" (SIGCOMM 2002), on the packet-level simulator.
//
// Usage:
//
//	repro -fig 5            # one figure
//	repro -all              # every figure
//	repro -all -scale 0.2   # scaled-down run counts and windows
//
// Output is plain text: one table or series per figure, in the shape of
// the paper's plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// A figure is one entry of the figure table: everything -fig, -all, the
// help string and the per-figure footer know about it.
type figure struct {
	keys  []string // -fig selectors; -all runs the first
	label string   // what the per-figure footer calls it
	inAll bool     // part of -all (the 10k-path tier takes minutes)
	run   func(opts) string
}

type opts = experiments.Options

var figures = []figure{
	{[]string{"1", "2", "3"}, "figs 1-3", true, func(o opts) string { return experiments.RenderOWDTraces(experiments.OWDTraces(o)) }},
	{[]string{"5"}, "fig 5", true, func(o opts) string {
		return experiments.RenderAccuracy("Fig 5: accuracy vs tight-link load and traffic model", experiments.Fig5(o))
	}},
	{[]string{"6"}, "fig 6", true, func(o opts) string {
		return experiments.RenderAccuracy("Fig 6: accuracy vs non-tight-link load (A = 4 Mb/s throughout)", experiments.Fig6(o))
	}},
	{[]string{"7"}, "fig 7", true, func(o opts) string {
		return experiments.RenderAccuracy("Fig 7: accuracy vs path tightness factor β (A = 4 Mb/s)", experiments.Fig7(o))
	}},
	{[]string{"8"}, "fig 8", true, func(o opts) string {
		return experiments.RenderSensitivity("Fig 8: effect of fleet fraction f (single runs)", "f", experiments.Fig8(o))
	}},
	{[]string{"9"}, "fig 9", true, func(o opts) string {
		return experiments.RenderSensitivity("Fig 9: effect of the PDT threshold (PDT-only detection)", "thresh", experiments.Fig9(o))
	}},
	{[]string{"10"}, "fig 10", true, func(o opts) string { return experiments.RenderVerification(experiments.Fig10(o)) }},
	{[]string{"11"}, "fig 11", true, func(o opts) string {
		return experiments.RenderDynamics("Fig 11: avail-bw variability vs tight-link load (C_t = 12.4 Mb/s)", experiments.Fig11(o))
	}},
	{[]string{"12"}, "fig 12", true, func(o opts) string {
		return experiments.RenderDynamics("Fig 12: variability vs statistical multiplexing (u ≈ 65%)", experiments.Fig12(o))
	}},
	{[]string{"13"}, "fig 13", true, func(o opts) string {
		return experiments.RenderDynamics("Fig 13: variability vs stream length K", experiments.Fig13(o))
	}},
	{[]string{"14"}, "fig 14", true, func(o opts) string {
		return experiments.RenderDynamics("Fig 14: variability vs fleet length N", experiments.Fig14(o))
	}},
	{[]string{"15", "16"}, "figs 15-16", true, func(o opts) string { return experiments.RenderBTC(experiments.Fig15and16(o)) }},
	{[]string{"17", "18"}, "figs 17-18", true, func(o opts) string { return experiments.RenderIntrusive(experiments.Fig17and18(o)) }},
	{[]string{"baseline"}, "fig baseline", true, func(o opts) string { return experiments.RenderBaseline(experiments.BaselineComparison(o)) }},
	{[]string{"timescale"}, "fig timescale", true, func(o opts) string { return experiments.RenderTimescale(experiments.TimescaleVariance(o)) }},
	{[]string{"scale"}, "dynamics at scale", true, func(o opts) string { return experiments.RenderScale(experiments.DynamicsAtScale(o)) }},
	{[]string{"scale10k"}, "dynamics at 10k paths", false, func(o opts) string { return experiments.RenderScaleSummary(experiments.DynamicsAtScale10k(o)) }},
	{[]string{"trajectory"}, "avail-bw trajectories", true, func(o opts) string { return experiments.RenderTrajectory(experiments.AvailBwTrajectory(o)) }},
	{[]string{"contention"}, "fleet self-interference", true, func(o opts) string { return experiments.RenderContention(experiments.Contention(o)) }},
	{[]string{"adaptive"}, "adaptive scheduling", true, func(o opts) string { return experiments.RenderAdaptive(experiments.AdaptiveSchedule(o)) }},
	{[]string{"scenarios"}, "scenario grading matrix", true, func(o opts) string { return experiments.RenderScenarios(experiments.Scenarios(o)) }},
	{[]string{"fleetscenarios"}, "sequenced fleet scenarios", true, func(o opts) string { return experiments.RenderFleetScenarios(experiments.FleetScenarios(o)) }},
}

// figHelp lists every selector of the table, for the -fig usage text.
func figHelp() string {
	var keys []string
	for _, f := range figures {
		keys = append(keys, f.keys...)
	}
	return strings.Join(keys, ", ")
}

// selectFigures resolves the -fig / -all flags against the table before
// anything runs, so a typo fails at once instead of after the figures
// in front of it.
func selectFigures(fig string, all bool) ([]figure, error) {
	if all && fig != "" {
		return nil, fmt.Errorf("-all runs every figure; drop -fig %q or drop -all", fig)
	}
	var sel []figure
	if all {
		for _, f := range figures {
			if f.inAll {
				sel = append(sel, f)
			}
		}
		return sel, nil
	}
next:
	for _, key := range strings.Split(fig, ",") {
		key = strings.TrimSpace(key)
		for _, f := range figures {
			for _, k := range f.keys {
				if k == key {
					sel = append(sel, f)
					continue next
				}
			}
		}
		return nil, fmt.Errorf("unknown figure %q (have %s)", key, figHelp())
	}
	return sel, nil
}

func main() {
	fig := flag.String("fig", "", "figure(s) to reproduce, comma-separated: "+figHelp())
	all := flag.Bool("all", false, "reproduce every figure (except scale10k)")
	scale := flag.Float64("scale", 1.0, "scale factor for run counts and measurement windows (1 = paper scale)")
	seed := flag.Int64("seed", 1, "master random seed")
	flag.Parse()

	opt := experiments.Options{Scale: *scale, Seed: *seed}
	if !*all && *fig == "" {
		flag.Usage()
		os.Exit(2)
	}
	sel, err := selectFigures(*fig, *all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(2)
	}
	for _, f := range sel {
		start := time.Now()
		fmt.Print(f.run(opt))
		fmt.Printf("(%s in %.1fs)\n\n", f.label, time.Since(start).Seconds())
	}
}
