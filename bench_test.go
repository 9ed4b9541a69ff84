// Benchmarks regenerating every figure of the paper's evaluation, plus
// micro-benchmarks of the building blocks. Figure benchmarks run the
// corresponding experiment at a reduced Scale so `go test -bench .`
// finishes in minutes; `cmd/repro -all` runs them at paper scale.
// Figure benchmarks report figure-specific metrics (range centers,
// bracketing, ρ percentiles, overshoots) via b.ReportMetric, so the
// bench output doubles as a compact reproduction table.
package pathload_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"
	"repro/internal/tcpsim"

	pathload "repro"
)

// benchOpt returns the standard scaled-down options for figure
// benchmarks, varying the seed across b.N iterations.
func benchOpt(i int) experiments.Options {
	return experiments.Options{Scale: 0.08, Seed: int64(1 + i)}
}

// BenchmarkFig01OWDTraceAbove reproduces Fig. 1: a stream probing above
// the avail-bw must classify as increasing. Reported metric:
// OWD rise in milliseconds over the stream.
func BenchmarkFig01OWDTraceAbove(b *testing.B) {
	var rise float64
	for i := 0; i < b.N; i++ {
		traces := experiments.OWDTraces(benchOpt(i))
		rise = traces[0].RiseMs
		if traces[0].Kind != "I" {
			b.Fatalf("fig1 stream classified %q, want increasing", traces[0].Kind)
		}
	}
	b.ReportMetric(rise, "owd-rise-ms")
}

// BenchmarkFig02OWDTraceBelow reproduces Fig. 2: probing below the
// avail-bw must not show a trend.
func BenchmarkFig02OWDTraceBelow(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		traces := experiments.OWDTraces(benchOpt(i))
		pct = traces[1].PCT
		if traces[1].Kind == "I" {
			b.Fatalf("fig2 stream classified increasing below the avail-bw")
		}
	}
	b.ReportMetric(pct, "pct")
}

// BenchmarkFig03OWDTraceGrey reproduces Fig. 3: probing near the
// avail-bw, where the trend comes and goes with the avail-bw process.
func BenchmarkFig03OWDTraceGrey(b *testing.B) {
	var pdt float64
	for i := 0; i < b.N; i++ {
		traces := experiments.OWDTraces(benchOpt(i))
		pdt = traces[2].PDT
	}
	b.ReportMetric(pdt, "pdt")
}

// reportAccuracy folds an accuracy sweep into bracketing rate and mean
// absolute center error.
func reportAccuracy(b *testing.B, pts []experiments.AccuracyPoint) {
	b.Helper()
	brackets, centerErr := 0.0, 0.0
	for _, p := range pts {
		if p.Contained {
			brackets++
		}
		e := p.CenterErr
		if e < 0 {
			e = -e
		}
		centerErr += e
	}
	b.ReportMetric(brackets/float64(len(pts)), "bracket-rate")
	b.ReportMetric(centerErr/float64(len(pts))*100, "center-err-%")
}

// BenchmarkFig05AccuracyVsLoad reproduces Fig. 5 (accuracy across
// tight-link loads and traffic models).
func BenchmarkFig05AccuracyVsLoad(b *testing.B) {
	var pts []experiments.AccuracyPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig5(benchOpt(i))
	}
	reportAccuracy(b, pts)
}

// BenchmarkFig06AccuracyVsNonTightLoad reproduces Fig. 6.
func BenchmarkFig06AccuracyVsNonTightLoad(b *testing.B) {
	var pts []experiments.AccuracyPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig6(benchOpt(i))
	}
	reportAccuracy(b, pts)
}

// BenchmarkFig07AccuracyVsTightness reproduces Fig. 7. The interesting
// metric is the center error at β = 1 (every link tight), the paper's
// documented underestimation regime.
func BenchmarkFig07AccuracyVsTightness(b *testing.B) {
	var pts []experiments.AccuracyPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig7(benchOpt(i))
	}
	var worst float64
	for _, p := range pts {
		if p.Param == 1 && p.CenterErr < worst {
			worst = p.CenterErr
		}
	}
	reportAccuracy(b, pts)
	b.ReportMetric(worst*100, "beta1-center-err-%")
}

// BenchmarkFig08FleetFraction reproduces Fig. 8: the reported range
// width must grow with the fleet agreement fraction f.
func BenchmarkFig08FleetFraction(b *testing.B) {
	var pts []experiments.SensitivityPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig8(experiments.Options{Seed: int64(1 + i)})
	}
	b.ReportMetric(pts[0].Width()/1e6, "width-f-lo-mbps")
	b.ReportMetric(pts[len(pts)-1].Width()/1e6, "width-f-hi-mbps")
}

// BenchmarkFig09PDTThreshold reproduces Fig. 9: range centers at the
// extreme thresholds (under- and over-estimation).
func BenchmarkFig09PDTThreshold(b *testing.B) {
	var pts []experiments.SensitivityPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig9(experiments.Options{Seed: int64(1 + i)})
	}
	lo := (pts[0].Lo + pts[0].Hi) / 2
	hi := (pts[len(pts)-1].Lo + pts[len(pts)-1].Hi) / 2
	b.ReportMetric(lo/1e6, "center-thr-lo-mbps")
	b.ReportMetric(hi/1e6, "center-thr-hi-mbps")
	b.ReportMetric(pts[0].TrueA/1e6, "true-a-mbps")
}

// BenchmarkFig10MRTGVerification reproduces Fig. 10: the fraction of
// runs whose weighted pathload average lands in the quantized MRTG
// bucket.
func BenchmarkFig10MRTGVerification(b *testing.B) {
	var runs []experiments.VerificationRun
	for i := 0; i < b.N; i++ {
		runs = experiments.Fig10(benchOpt(i))
	}
	within := 0
	for _, r := range runs {
		if r.Within {
			within++
		}
	}
	b.ReportMetric(float64(within)/float64(len(runs)), "within-rate")
}

// reportRho reports the 75th-percentile ρ of the first and last
// condition of a dynamics figure — the pair the paper quotes.
func reportRho(b *testing.B, cdfs []experiments.DynamicsCDF) {
	b.Helper()
	b.ReportMetric(cdfs[0].P(75), "rho75-first")
	b.ReportMetric(cdfs[len(cdfs)-1].P(75), "rho75-last")
}

// BenchmarkFig11VariabilityVsLoad reproduces Fig. 11: ρ should rise
// several-fold from light to heavy load.
func BenchmarkFig11VariabilityVsLoad(b *testing.B) {
	var cdfs []experiments.DynamicsCDF
	for i := 0; i < b.N; i++ {
		cdfs = experiments.Fig11(benchOpt(i))
	}
	reportRho(b, cdfs)
}

// BenchmarkFig12VariabilityVsMultiplexing reproduces Fig. 12: ρ should
// fall as the tight link's statistical multiplexing grows.
func BenchmarkFig12VariabilityVsMultiplexing(b *testing.B) {
	var cdfs []experiments.DynamicsCDF
	for i := 0; i < b.N; i++ {
		cdfs = experiments.Fig12(benchOpt(i))
	}
	reportRho(b, cdfs)
}

// BenchmarkFig13VariabilityVsStreamLength reproduces Fig. 13: ρ should
// fall as the stream (averaging timescale) lengthens.
func BenchmarkFig13VariabilityVsStreamLength(b *testing.B) {
	var cdfs []experiments.DynamicsCDF
	for i := 0; i < b.N; i++ {
		cdfs = experiments.Fig13(benchOpt(i))
	}
	reportRho(b, cdfs)
}

// BenchmarkFig14VariabilityVsFleetLength reproduces Fig. 14: ρ should
// rise with the fleet length.
func BenchmarkFig14VariabilityVsFleetLength(b *testing.B) {
	var cdfs []experiments.DynamicsCDF
	for i := 0; i < b.N; i++ {
		cdfs = experiments.Fig14(benchOpt(i))
	}
	reportRho(b, cdfs)
}

// BenchmarkFig15BTCThroughput reproduces Fig. 15: BTC overshoot
// relative to the surrounding avail-bw, and the avail-bw collapse while
// it runs.
func BenchmarkFig15BTCThroughput(b *testing.B) {
	var res experiments.BTCResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig15and16(experiments.Options{Scale: 0.3, Seed: int64(1 + i)})
	}
	b.ReportMetric(res.Overshoot*100, "overshoot-%")
	var busyAvail float64
	for _, iv := range res.Intervals {
		if iv.BTCActive {
			busyAvail += iv.Avail / 2
		}
	}
	b.ReportMetric(busyAvail/1e6, "avail-during-btc-mbps")
}

// BenchmarkFig16BTCRTTInflation reproduces Fig. 16: RTT inflation under
// the BTC connection.
func BenchmarkFig16BTCRTTInflation(b *testing.B) {
	var res experiments.BTCResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig15and16(experiments.Options{Scale: 0.3, Seed: int64(1 + i)})
	}
	b.ReportMetric(res.RTTQuiet*1e3, "rtt-quiet-ms")
	b.ReportMetric(res.RTTBusyP95*1e3, "rtt-busy-p95-ms")
}

// BenchmarkFig17PathloadNonIntrusiveAvail reproduces Fig. 17: avail-bw
// change while pathload probes (should be ≈ 0).
func BenchmarkFig17PathloadNonIntrusiveAvail(b *testing.B) {
	var res experiments.IntrusiveResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig17and18(experiments.Options{Scale: 0.3, Seed: int64(1 + i)})
	}
	b.ReportMetric(res.AvailChange*100, "avail-change-%")
	b.ReportMetric(float64(res.ProbeStreamsLost), "streams-with-loss")
}

// BenchmarkFig18PathloadNonIntrusiveRTT reproduces Fig. 18: RTT change
// while pathload probes (should be ≈ 0).
func BenchmarkFig18PathloadNonIntrusiveRTT(b *testing.B) {
	var res experiments.IntrusiveResult
	for i := 0; i < b.N; i++ {
		res = experiments.Fig17and18(experiments.Options{Scale: 0.3, Seed: int64(1 + i)})
	}
	b.ReportMetric(res.RTTChange*100, "rtt-change-%")
	b.ReportMetric(float64(res.PingsLost), "pings-lost")
}

// BenchmarkBaselineCprobeVsPathload reproduces the §II separation: the
// dispersion baseline's overestimation of the avail-bw versus
// pathload's center error, at 60% tight-link load.
func BenchmarkBaselineCprobeVsPathload(b *testing.B) {
	var pts []experiments.BaselinePoint
	for i := 0; i < b.N; i++ {
		pts = experiments.BaselineComparison(experiments.Options{Seed: int64(1 + i)})
	}
	p := pts[2] // u = 60%
	b.ReportMetric((p.Cprobe-p.TrueA)/p.TrueA*100, "cprobe-overest-%")
	b.ReportMetric(((p.PathloadL+p.PathloadH)/2-p.TrueA)/p.TrueA*100, "pathload-err-%")
}

// BenchmarkTimescaleVariance reproduces the §I variance-vs-τ relation:
// the ratio of the avail-bw process σ at 10 ms and 2.56 s timescales.
func BenchmarkTimescaleVariance(b *testing.B) {
	var cdfs []experiments.TimescaleCDF
	for i := 0; i < b.N; i++ {
		cdfs = experiments.TimescaleVariance(experiments.Options{Scale: 0.3, Seed: int64(1 + i)})
	}
	for _, c := range cdfs {
		if len(c.Points) >= 2 {
			first, last := c.Points[0], c.Points[len(c.Points)-1]
			b.ReportMetric(first.StdDev/last.StdDev, "sigma-decay-"+c.Model)
		}
	}
}

// --- Ablation benchmarks (design choices DESIGN.md calls out) ---

// BenchmarkAblationTrendMetrics compares stream classification with
// PCT only, PDT only, and both, on the default topology at the true
// avail-bw boundary. Reported: bracketing of each variant's result.
func BenchmarkAblationTrendMetrics(b *testing.B) {
	variants := []struct {
		name string
		cfg  pathload.Config
	}{
		{"both", pathload.Config{}},
		{"pct-only", pathload.Config{DisablePDT: true}},
		{"pdt-only", pathload.Config{DisablePCT: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var center float64
			for i := 0; i < b.N; i++ {
				net := experiments.Topology{Seed: int64(100 + i)}.Build()
				net.Warmup(3 * netsim.Second)
				prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
				res, err := pathload.Run(prober, v.cfg)
				if err != nil {
					b.Fatal(err)
				}
				center = res.Mid() / 1e6
			}
			b.ReportMetric(center, "center-mbps")
			b.ReportMetric(4.0, "true-a-mbps")
		})
	}
}

// BenchmarkAblationMedianGroups compares the paper's Γ = √K grouping
// against coarser and finer groupings.
func BenchmarkAblationMedianGroups(b *testing.B) {
	for _, gamma := range []int{5, 10, 25} {
		b.Run(map[int]string{5: "gamma5", 10: "gamma10-paper", 25: "gamma25"}[gamma], func(b *testing.B) {
			var center float64
			for i := 0; i < b.N; i++ {
				net := experiments.Topology{Seed: int64(200 + i)}.Build()
				net.Warmup(3 * netsim.Second)
				prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
				res, err := pathload.Run(prober, pathload.Config{MedianGroups: gamma})
				if err != nil {
					b.Fatal(err)
				}
				center = res.Mid() / 1e6
			}
			b.ReportMetric(center, "center-mbps")
		})
	}
}

// BenchmarkAblationInterStreamGap measures how the Δ = 9τ inter-stream
// rule trades probing time against fleet-level interference: a smaller
// gap probes faster but self-congests.
func BenchmarkAblationInterStreamGap(b *testing.B) {
	for _, gap := range []int{1, 4, 9} {
		b.Run(map[int]string{1: "delta1tau", 4: "delta4tau", 9: "delta9tau-paper"}[gap], func(b *testing.B) {
			var center, elapsed float64
			for i := 0; i < b.N; i++ {
				net := experiments.Topology{Seed: int64(300 + i)}.Build()
				net.Warmup(3 * netsim.Second)
				prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
				res, err := pathload.Run(prober, pathload.Config{InterStreamRTTs: gap})
				if err != nil {
					b.Fatal(err)
				}
				center = res.Mid() / 1e6
				elapsed = res.Elapsed.Seconds()
			}
			b.ReportMetric(center, "center-mbps")
			b.ReportMetric(elapsed, "probe-seconds")
		})
	}
}

// --- Micro-benchmarks of the substrates ---

// BenchmarkTrendClassification measures the per-stream analysis cost
// (median groups + PCT + PDT) at the default K = 100.
func BenchmarkTrendClassification(b *testing.B) {
	owds := make([]float64, 100)
	for i := range owds {
		owds[i] = 0.05 + 0.0001*float64(i%7) + 0.00002*float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ClassifyOWDs(owds, core.TrendConfig{})
	}
}

// BenchmarkControllerSearch measures a full binary search against a
// synthetic oracle.
func BenchmarkControllerSearch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctrl, err := core.NewController(core.ControllerConfig{
			MaxRate: 120e6, Resolution: 1e6, GreyResolution: 1.5e6,
		})
		if err != nil {
			b.Fatal(err)
		}
		for !ctrl.Done() {
			if ctrl.Rate() > 40e6 {
				ctrl.Record(core.VerdictAbove)
			} else {
				ctrl.Record(core.VerdictBelow)
			}
		}
	}
}

// BenchmarkSimulatorPacketForwarding measures raw simulator throughput:
// packets per second through a 5-hop path with cross traffic.
func BenchmarkSimulatorPacketForwarding(b *testing.B) {
	net := experiments.Topology{Seed: 1}.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Sim.RunFor(100 * netsim.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(net.Sim.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkPathloadRunSimulated measures one full measurement on the
// default topology — the headline "what does a measurement cost" bench.
func BenchmarkPathloadRunSimulated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := experiments.Topology{Seed: int64(i)}.Build()
		net.Warmup(3 * netsim.Second)
		prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
		if _, err := pathload.Run(prober, pathload.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPBulkTransfer measures simulated TCP goodput processing
// cost: one second of a saturating bulk flow.
func BenchmarkTCPBulkTransfer(b *testing.B) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 100e6, 5*netsim.Millisecond, 256<<10)
	flow := tcpsim.NewFlow(sim, "bench", []*netsim.Link{link}, 5*netsim.Millisecond, 0)
	flow.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunFor(netsim.Second)
	}
	b.StopTimer()
	if flow.Delivered() == 0 {
		b.Fatal("bulk flow delivered nothing")
	}
}

// BenchmarkStreamParams measures the stream parameter computation.
func BenchmarkStreamParams(b *testing.B) {
	cfg := pathload.Config{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.StreamParams(float64(1+i%100) * 1e6)
	}
}

// BenchmarkProbeStream measures the cost of one simulated probe stream
// (inject, queue, deliver, collect) including analysis.
func BenchmarkProbeStream(b *testing.B) {
	net := experiments.Topology{Seed: 5}.Build()
	net.Warmup(3 * netsim.Second)
	prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
	cfg := pathload.Config{}
	l, t := cfg.StreamParams(4e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prober.SendStream(pathload.StreamSpec{Rate: 4e6, K: 100, L: l, T: t}); err != nil {
			b.Fatal(err)
		}
		prober.Idle(50 * time.Millisecond)
	}
}
