package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/crosstraffic"
	"repro/internal/netsim"
)

// smallOpt keeps experiment tests fast.
var smallOpt = Options{Scale: 0.05, Seed: 77}

// TestTopologyDefaults pins the paper's §V-A defaults.
func TestTopologyDefaults(t *testing.T) {
	topo := Topology{}.withDefaults()
	if topo.Hops != 5 || topo.TightCap != 10e6 || topo.TightUtil != 0.6 {
		t.Fatalf("defaults %+v", topo)
	}
	if got := (Topology{}).AvailBw(); got != 4e6 {
		t.Fatalf("default avail-bw %v, want 4 Mb/s", got)
	}
}

// TestTopologyBuildShape checks link wiring and tight-link placement.
func TestTopologyBuildShape(t *testing.T) {
	net := Topology{Hops: 5, Seed: 1}.Build()
	if len(net.Links) != 5 {
		t.Fatalf("%d links, want 5", len(net.Links))
	}
	if net.TightIdx != 2 {
		t.Fatalf("tight index %d, want middle", net.TightIdx)
	}
	if net.Tight().Capacity() != 10_000_000 {
		t.Fatalf("tight capacity %d", net.Tight().Capacity())
	}
	for i, l := range net.Links {
		if i != net.TightIdx && l.Capacity() <= net.Tight().Capacity() {
			t.Fatalf("non-tight link %d capacity %d not above tight", i, l.Capacity())
		}
	}
}

// TestTopologyCrossRates verifies each link's configured utilization is
// realized by the generated traffic.
func TestTopologyCrossRates(t *testing.T) {
	net := Topology{Model: crosstraffic.ModelPoisson, Seed: 5}.Build()
	before := make([]netsim.LinkCounters, len(net.Links))
	net.Warmup(2 * netsim.Second)
	for i, l := range net.Links {
		before[i] = l.Counters()
	}
	start := net.Sim.Now()
	net.Sim.RunFor(60 * netsim.Second)
	window := net.Sim.Now() - start
	for i, l := range net.Links {
		util := netsim.Utilization(before[i], l.Counters(), window)
		want := 0.2
		if i == net.TightIdx {
			want = 0.6
		}
		if util < want-0.05 || util > want+0.05 {
			t.Errorf("link %d utilization %.3f, want ≈%.2f", i, util, want)
		}
	}
}

// TestTopologyBadBeta pins the β ≥ 1 contract.
func TestTopologyBadBeta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("β < 1 accepted")
		}
	}()
	Topology{Beta: 0.5}.Build()
}

// TestMeasuredAvailMatchesConfig: the counter-based ground truth agrees
// with the configured avail-bw.
func TestMeasuredAvailMatchesConfig(t *testing.T) {
	net := Topology{Seed: 9}.Build()
	net.Warmup(2 * netsim.Second)
	got := net.MeasuredAvail(func() { net.Sim.RunFor(60 * netsim.Second) })
	if got < 3.6e6 || got > 4.4e6 {
		t.Fatalf("measured avail %.2f Mb/s, want ≈4", got/1e6)
	}
}

// TestOWDTracesShape: Fig 1 increasing, Fig 2 not.
func TestOWDTracesShape(t *testing.T) {
	traces := OWDTraces(Options{Seed: 7})
	if len(traces) != 3 {
		t.Fatalf("%d traces, want 3", len(traces))
	}
	if traces[0].Kind != "I" {
		t.Errorf("fig1 (R=96 > A≈74) classified %q", traces[0].Kind)
	}
	if traces[1].Kind == "I" {
		t.Errorf("fig2 (R=37 < A≈74) classified increasing")
	}
	if traces[0].RiseMs <= 0 {
		t.Errorf("fig1 OWD rise %.3f ms, want positive", traces[0].RiseMs)
	}
}

// TestBaselineComparisonShape: cprobe must exceed the true avail-bw at
// every load and the overestimation must grow with load.
func TestBaselineComparisonShape(t *testing.T) {
	pts := BaselineComparison(smallOpt)
	if len(pts) != 4 {
		t.Fatalf("%d points, want 4", len(pts))
	}
	prevExcess := 0.0
	for i, p := range pts {
		if p.Cprobe <= p.TrueA {
			t.Errorf("u=%.0f%%: cprobe %.2f below true A %.2f", p.Util*100, p.Cprobe/1e6, p.TrueA/1e6)
		}
		excess := p.Cprobe - p.TrueA
		if i > 0 && excess < prevExcess*0.5 {
			t.Errorf("u=%.0f%%: overestimation %.2f Mb/s collapsed from %.2f", p.Util*100, excess/1e6, prevExcess/1e6)
		}
		prevExcess = excess
		// Cprobe should track the analytical ADR within ~15%.
		if rel := (p.Cprobe - p.FluidADR) / p.FluidADR; rel > 0.15 || rel < -0.15 {
			t.Errorf("u=%.0f%%: cprobe %.2f vs fluid ADR %.2f (rel %.2f)", p.Util*100, p.Cprobe/1e6, p.FluidADR/1e6, rel)
		}
	}
}

// TestTimescaleVarianceShape: σ(A) must fall as τ grows, per model.
func TestTimescaleVarianceShape(t *testing.T) {
	cdfs := TimescaleVariance(Options{Scale: 0.3, Seed: 5})
	for _, c := range cdfs {
		if len(c.Points) < 3 {
			t.Fatalf("%s: only %d timescale points", c.Model, len(c.Points))
		}
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].StdDev >= c.Points[i-1].StdDev {
				t.Errorf("%s: σ(τ=%v)=%.0f not below σ(τ=%v)=%.0f",
					c.Model, c.Points[i].Tau, c.Points[i].StdDev,
					c.Points[i-1].Tau, c.Points[i-1].StdDev)
			}
		}
	}
}

// TestRenderersProduceTables renders nine rows of Figures on tiny
// experiment runs, one parallel subtest each, and compares their
// concatenation in the order listed with testdata/renderers.golden
// once every subtest has finished. A -run pattern that selects only
// some rows skips the comparison. Run with -update to regolden after
// an intentional change.
func TestRenderersProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several scaled-down experiments")
	}
	t.Parallel() // pool these cells with the other parallel group's
	rows := []struct{ name, key string }{
		{"owd", "1"}, {"fig5", "5"}, {"fig8", "8"}, {"fig9", "9"}, {"fig11", "11"},
		{"fig15", "15"}, {"fig17", "17"}, {"baseline", "baseline"}, {"timescale", "timescale"},
	}
	outs := make([]string, len(rows))
	t.Cleanup(func() {
		if !slices.Contains(outs, "") {
			checkGolden(t, "renderers.golden", strings.Join(outs, ""))
		}
	})
	for i, row := range rows {
		render := figure(t, row.key).Run
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			if outs[i] = render(smallOpt); outs[i] == "" {
				t.Error("renderer produced nothing")
			}
		})
	}
}

// TestPaperSmallGolden pins, at a fifth of the paper's scale, the
// renders of the figures that wire their own links (figs 1–3) or read
// a link's windowed counters (timescale, figs 15–18), and the cprobe
// baseline (§II), which no other golden covers. Run with -update to
// regolden after an intentional change.
func TestPaperSmallGolden(t *testing.T) {
	var got string
	for _, key := range []string{"1", "timescale", "15", "17", "baseline"} {
		got += figure(t, key).Run(Options{Scale: 0.2})
	}
	checkGolden(t, "papersmall.golden", got)
}

// TestOptionsScaling pins the run-count scaling rules.
func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.1}.withDefaults()
	if got := o.runs(110); got != 11 {
		t.Errorf("runs(110) at 0.1 = %d, want 11", got)
	}
	if got := o.runs(10); got != 3 {
		t.Errorf("runs(10) at 0.1 = %d, want floor 3", got)
	}
	if got := (Options{Scale: 5}.withDefaults()).runs(12); got != 12 {
		t.Errorf("runs(12) at 5 = %d, want cap 12", got)
	}
	if got := o.window(300*netsim.Second, 30*netsim.Second); got != 30*netsim.Second {
		t.Errorf("window floor = %v, want 30s", got)
	}
}
