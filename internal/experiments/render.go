package experiments

import (
	"fmt"
	"strings"
)

// RenderOWDTraces formats Figs. 1–3 as compact text: the trend verdict
// plus a downsampled OWD series.
func RenderOWDTraces(traces []OWDTrace) string {
	var b strings.Builder
	for _, tr := range traces {
		fmt.Fprintf(&b, "%s: R=%.0f Mb/s vs A≈%.0f Mb/s → %s (PCT=%.2f PDT=%.2f, rise=%.2f ms)\n",
			tr.Figure, tr.RateMbps, mbps(tr.AvailBw), tr.Kind, tr.PCT, tr.PDT, tr.RiseMs)
		fmt.Fprintf(&b, "  OWD(ms) by packet:")
		step := len(tr.OWDms) / 10
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(tr.OWDms); i += step {
			fmt.Fprintf(&b, " %d:%.2f", tr.Seqs[i], tr.OWDms[i])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// RenderAccuracy formats Figs. 5–7 as a table.
func RenderAccuracy(title string, pts []AccuracyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d runs per condition)\n", title, pts[0].Runs)
	fmt.Fprintf(&b, "%-22s %10s %22s %10s %9s\n", "condition", "true A", "mean range (Mb/s)", "center", "bracket?")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-22s %10.2f [%8.2f, %8.2f ] %10.2f %9v\n",
			p.Label, mbps(p.TrueA), mbps(p.MeanLo), mbps(p.MeanHi),
			mbps((p.MeanLo+p.MeanHi)/2), p.Contained)
	}
	return b.String()
}

// RenderSensitivity formats Figs. 8–9 as a table.
func RenderSensitivity(title, param string, pts []SensitivityPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s %22s %10s %22s\n", param, "range (Mb/s)", "width", "grey (Mb/s)")
	for _, p := range pts {
		grey := "-"
		if p.GreySet {
			grey = fmt.Sprintf("[%8.2f, %8.2f ]", mbps(p.GreyLo), mbps(p.GreyHi))
		}
		fmt.Fprintf(&b, "%-8.2f [%8.2f, %8.2f ] %10.2f %22s\n",
			p.Param, mbps(p.Lo), mbps(p.Hi), mbps(p.Width()), grey)
	}
	fmt.Fprintf(&b, "true A = %.2f Mb/s\n", mbps(pts[0].TrueA))
	return b.String()
}

// RenderVerification formats Fig. 10 as a table.
func RenderVerification(runs []VerificationRun) string {
	var b strings.Builder
	within := 0
	fmt.Fprintf(&b, "Fig 10: pathload (Eq. 11 weighted average) vs quantized MRTG reading\n")
	fmt.Fprintf(&b, "%-4s %12s %20s %14s %8s\n", "run", "MRTG avail", "MRTG bucket (Mb/s)", "pathload avg", "within?")
	for _, r := range runs {
		if r.Within {
			within++
		}
		fmt.Fprintf(&b, "%-4d %12.2f [%7.2f, %7.2f ] %14.2f %8v\n",
			r.Run, mbps(r.MRTGAvail), mbps(r.MRTGLo), mbps(r.MRTGHi), mbps(r.PathloadAvg), r.Within)
	}
	fmt.Fprintf(&b, "within MRTG bucket: %d/%d (paper: 10/12, misses marginal)\n", within, len(runs))
	return b.String()
}

// RenderDynamics formats Figs. 11–14: the decile table of ρ per
// condition.
func RenderDynamics(title string, cdfs []DynamicsCDF) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d runs per condition; ρ deciles)\n", title, cdfs[0].Runs)
	fmt.Fprintf(&b, "%-22s", "condition")
	for _, p := range dynamicsDeciles {
		fmt.Fprintf(&b, " %6.0f%%", p)
	}
	fmt.Fprintf(&b, "\n")
	for _, c := range cdfs {
		fmt.Fprintf(&b, "%-22s", c.Label)
		for _, v := range c.Deciles {
			fmt.Fprintf(&b, " %7.2f", v)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// RenderScale formats the dynamics-at-scale fleet: one row per path
// with its configured avail-bw, MRTG reading, and per-round ranges.
func RenderScale(r ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamics at scale: %d paths × %d rounds (%.2gM sim events)\n",
		len(r.Paths), r.Rounds, float64(r.Events)/1e6)
	fmt.Fprintf(&b, "%-9s %8s %8s %4s  %s\n", "path", "true A", "MRTG", "cov", "ranges over time (Mb/s)")
	for _, p := range r.Paths {
		fmt.Fprintf(&b, "%-9s %8.2f %8.2f %d/%d ", p.Path, mbps(p.True), mbps(p.MRTG), p.Covered, len(p.Points))
		for _, pt := range p.Points {
			fmt.Fprintf(&b, " [%.1f,%.1f]", mbps(pt.Lo), mbps(pt.Hi))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "coverage (range brackets true A within ω+χ): %.0f%%\n", r.Coverage()*100)
	return b.String()
}

// RenderScaleSummary formats a large-fleet scale run as aggregates — a
// 10k-path tier would print ten thousand rows through RenderScale, so
// this reports fleet-wide coverage, event totals, and throughput, plus
// coverage split by utilization quartile as the per-path sanity check.
func RenderScaleSummary(r ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamics at scale (summary): %d paths × %d rounds, %d workers\n",
		len(r.Paths), r.Rounds, r.Workers)
	secs := r.Wall.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Fprintf(&b, "events: %.1fM total, %.2fM events/s; throughput: %.0f path-measurements/s (%.1fs wall)\n",
		float64(r.Events)/1e6, float64(r.Events)/1e6/secs,
		float64(len(r.Paths)*r.Rounds)/secs, r.Wall.Seconds())
	// The fleet's utilization sweeps low→high with the path index, so
	// index quartiles are utilization quartiles.
	fmt.Fprintf(&b, "%-22s %8s %8s\n", "utilization quartile", "paths", "coverage")
	n := len(r.Paths)
	for q := 0; q < 4 && n > 0; q++ {
		lo, hi := q*n/4, (q+1)*n/4
		var covered, total int
		for _, p := range r.Paths[lo:hi] {
			covered += p.Covered
			total += len(p.Points)
		}
		cov := 0.0
		if total > 0 {
			cov = float64(covered) / float64(total)
		}
		fmt.Fprintf(&b, "Q%d (paths %d..%d) %8d %7.0f%%\n", q+1, lo, hi-1, hi-lo, cov*100)
	}
	fmt.Fprintf(&b, "coverage (range brackets true A within ω+χ): %.0f%%\n", r.Coverage()*100)
	return b.String()
}

// RenderTrajectory formats the avail-bw trajectory experiment: one row
// per path with the configured avail-bw and the stored series' window
// aggregates on either side of the mid-run cross-traffic step.
func RenderTrajectory(r TrajectoryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Avail-bw trajectories: %d paths × %d rounds, cross-traffic step before round %d (tsstore windows)\n",
		len(r.Paths), r.Rounds, r.StepRound)
	fmt.Fprintf(&b, "%-9s %-5s %8s %8s %22s %22s  %s\n",
		"path", "step", "A pre", "A post", "pre [minLo,maxHi] mean", "post [minLo,maxHi] mean", "tracked")
	for _, p := range r.Paths {
		dir := "load-" // cross traffic removed: avail-bw steps up
		if p.StepUp {
			dir = "load+" // cross traffic added: avail-bw steps down
		}
		fmt.Fprintf(&b, "%-9s %-5s %8.2f %8.2f  [%5.2f,%5.2f] %6.2f   [%5.2f,%5.2f] %6.2f   %v\n",
			p.Path, dir, mbps(p.TrueBefore), mbps(p.TrueAfter),
			mbps(p.Before.MinLo), mbps(p.Before.MaxHi), mbps(p.Before.MeanMid),
			mbps(p.After.MinLo), mbps(p.After.MaxHi), mbps(p.After.MeanMid),
			p.Tracked())
	}
	fmt.Fprintf(&b, "series (Mb/s):\n")
	for _, p := range r.Paths {
		fmt.Fprintf(&b, "%-9s", p.Path)
		for i, pt := range p.Points {
			if i == r.StepRound {
				fmt.Fprintf(&b, " |step|")
			}
			fmt.Fprintf(&b, " [%.1f,%.1f]", mbps(pt.Lo), mbps(pt.Hi))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "tracked (level both sides ∧ move ≥ ½ true step): %d/%d paths\n", r.TrackedPaths(), len(r.Paths))
	return b.String()
}

// RenderBTC formats Figs. 15–16.
func RenderBTC(r BTCResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 15: avail-bw vs BTC throughput (Mb/s)\n")
	fmt.Fprintf(&b, "%-4s %6s %10s %10s %18s\n", "ivl", "BTC?", "avail", "BTC mean", "BTC 1s min/max")
	for _, iv := range r.Intervals {
		if iv.BTCActive {
			fmt.Fprintf(&b, "%-4s %6v %10.2f %10.2f [%7.2f, %7.2f ]\n",
				iv.Name, iv.BTCActive, mbps(iv.Avail), mbps(iv.BTCMean), mbps(iv.BTCMin1s), mbps(iv.BTCMax1s))
		} else {
			fmt.Fprintf(&b, "%-4s %6v %10.2f %10s %18s\n", iv.Name, iv.BTCActive, mbps(iv.Avail), "-", "-")
		}
	}
	fmt.Fprintf(&b, "BTC overshoot vs surrounding avail-bw: %+.0f%% (paper: +20–30%%)\n", r.Overshoot*100)
	fmt.Fprintf(&b, "Fig 16: RTT quiet %.0f ms; during BTC mean %.0f ms, p95 %.0f ms, max %.0f ms (paper: 200 → up to 370 ms)\n",
		r.RTTQuiet*1e3, r.RTTBusyMean*1e3, r.RTTBusyP95*1e3, r.RTTBusyMax*1e3)
	return b.String()
}

// RenderIntrusive formats Figs. 17–18.
func RenderIntrusive(r IntrusiveResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 17: avail-bw with pathload running in B and D (Mb/s)\n")
	fmt.Fprintf(&b, "%-4s %10s %10s %6s %14s\n", "ivl", "pathload?", "avail", "runs", "mean estimate")
	for _, iv := range r.Intervals {
		est := "-"
		if iv.PathloadActive {
			est = fmt.Sprintf("%.2f", mbps(iv.MeanEstimate))
		}
		fmt.Fprintf(&b, "%-4s %10v %10.2f %6d %14s\n", iv.Name, iv.PathloadActive, mbps(iv.Avail), iv.Runs, est)
	}
	fmt.Fprintf(&b, "avail-bw change while probing: %+.1f%% (paper: no measurable decrease)\n", r.AvailChange*100)
	fmt.Fprintf(&b, "Fig 18: RTT quiet %.1f ms vs probing %.1f ms (%+.1f%%); probe streams with loss: %d; pings lost: %d\n",
		r.RTTQuiet*1e3, r.RTTBusy*1e3, r.RTTChange*100, r.ProbeStreamsLost, r.PingsLost)
	return b.String()
}
