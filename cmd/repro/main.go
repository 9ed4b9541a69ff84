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

func main() {
	fig := flag.String("fig", "", "figure to reproduce: 1-3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, baseline, timescale, scale, scale10k, trajectory, contention, adaptive, scenarios, fleetscenarios")
	all := flag.Bool("all", false, "reproduce every figure")
	scale := flag.Float64("scale", 1.0, "scale factor for run counts and measurement windows (1 = paper scale)")
	seed := flag.Int64("seed", 1, "master random seed")
	flag.Parse()

	opt := experiments.Options{Scale: *scale, Seed: *seed}
	if !*all && *fig == "" {
		flag.Usage()
		os.Exit(2)
	}

	figs := []string{"1", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "17", "baseline", "timescale", "scale", "trajectory", "contention", "adaptive", "scenarios", "fleetscenarios"}
	if !*all {
		figs = strings.Split(*fig, ",")
	}
	for _, f := range figs {
		start := time.Now()
		out, err := render(f, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("(%s in %.1fs)\n\n", figLabel(f), time.Since(start).Seconds())
	}
}

// figLabel names the figure(s) a selector covers.
func figLabel(f string) string {
	switch f {
	case "1", "2", "3":
		return "figs 1-3"
	case "15", "16":
		return "figs 15-16"
	case "17", "18":
		return "figs 17-18"
	case "scale":
		return "dynamics at scale"
	case "scale10k":
		return "dynamics at 10k paths"
	case "trajectory":
		return "avail-bw trajectories"
	case "contention":
		return "fleet self-interference"
	case "adaptive":
		return "adaptive scheduling"
	case "scenarios":
		return "scenario grading matrix"
	case "fleetscenarios":
		return "sequenced fleet scenarios"
	default:
		return "fig " + f
	}
}

// render runs one figure selector and formats its output.
func render(f string, opt experiments.Options) (string, error) {
	switch f {
	case "1", "2", "3":
		return experiments.RenderOWDTraces(experiments.OWDTraces(opt)), nil
	case "5":
		return experiments.RenderAccuracy("Fig 5: accuracy vs tight-link load and traffic model", experiments.Fig5(opt)), nil
	case "6":
		return experiments.RenderAccuracy("Fig 6: accuracy vs non-tight-link load (A = 4 Mb/s throughout)", experiments.Fig6(opt)), nil
	case "7":
		return experiments.RenderAccuracy("Fig 7: accuracy vs path tightness factor β (A = 4 Mb/s)", experiments.Fig7(opt)), nil
	case "8":
		return experiments.RenderSensitivity("Fig 8: effect of fleet fraction f (single runs)", "f", experiments.Fig8(opt)), nil
	case "9":
		return experiments.RenderSensitivity("Fig 9: effect of the PDT threshold (PDT-only detection)", "thresh", experiments.Fig9(opt)), nil
	case "10":
		return experiments.RenderVerification(experiments.Fig10(opt)), nil
	case "11":
		return experiments.RenderDynamics("Fig 11: avail-bw variability vs tight-link load (C_t = 12.4 Mb/s)", experiments.Fig11(opt)), nil
	case "12":
		return experiments.RenderDynamics("Fig 12: variability vs statistical multiplexing (u ≈ 65%)", experiments.Fig12(opt)), nil
	case "13":
		return experiments.RenderDynamics("Fig 13: variability vs stream length K", experiments.Fig13(opt)), nil
	case "14":
		return experiments.RenderDynamics("Fig 14: variability vs fleet length N", experiments.Fig14(opt)), nil
	case "15", "16":
		return experiments.RenderBTC(experiments.Fig15and16(opt)), nil
	case "17", "18":
		return experiments.RenderIntrusive(experiments.Fig17and18(opt)), nil
	case "baseline":
		return experiments.RenderBaseline(experiments.BaselineComparison(opt)), nil
	case "timescale":
		return experiments.RenderTimescale(experiments.TimescaleVariance(opt)), nil
	case "scale":
		return experiments.RenderScale(experiments.DynamicsAtScale(opt)), nil
	case "scale10k":
		return experiments.RenderScaleSummary(experiments.DynamicsAtScale10k(opt)), nil
	case "trajectory":
		return experiments.RenderTrajectory(experiments.AvailBwTrajectory(opt)), nil
	case "contention":
		return experiments.RenderContention(experiments.Contention(opt)), nil
	case "adaptive":
		return experiments.RenderAdaptive(experiments.AdaptiveSchedule(opt)), nil
	case "scenarios":
		return experiments.RenderScenarios(experiments.Scenarios(opt)), nil
	case "fleetscenarios":
		return experiments.RenderFleetScenarios(experiments.FleetScenarios(opt)), nil
	default:
		return "", fmt.Errorf("unknown figure %q", f)
	}
}
