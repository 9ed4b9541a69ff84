package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crosstraffic"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// An OWDTrace is the per-packet one-way delay record of a single
// periodic stream, the raw material of the paper's Figs. 1–3.
type OWDTrace struct {
	Figure   string  // "fig1", "fig2", "fig3"
	RateMbps float64 // stream rate
	AvailBw  float64 // long-term avail-bw of the path, bits/s
	// OWDms holds the relative OWD of each received packet in
	// milliseconds, shifted so the minimum is 0.
	OWDms []float64
	Seqs  []int
	// Trend metrics and the resulting classification.
	PCT, PDT float64
	Kind     string
	// RiseMs is OWD(last) − OWD(first).
	RiseMs float64
}

// A wanHop is one link of a hand-built WAN path: its name, capacity in
// bits/s and cross-traffic utilization.
type wanHop struct {
	name string
	cap  float64
	util float64
}

// oregonDelaware is shaped like the paper's Univ-Oregon →
// Univ-Delaware route: the narrow link is a 100 Mb/s Fast Ethernet
// interface while the tight link is a 155 Mb/s OC-3 carrying enough
// traffic to leave ≈ 74 Mb/s available.
var oregonDelaware = []wanHop{
	{"gigapop", 622e6, 0.10},
	{"fast-ethernet(narrow)", 100e6, 0.05},
	{"oc3(tight)", 155e6, 0.5226}, // A ≈ 74 Mb/s
	{"abilene", 622e6, 0.10},
	{"campus", 622e6, 0.08},
}

// hopPath builds a chain of hops with 10 ms of propagation each, hop i
// loaded by ten Pareto sources of the trimodal mix at cap·util, seeded
// seed + i·999 983.
func hopPath(seed int64, hops ...wanHop) (*netsim.Simulator, []*netsim.Link) {
	sim := netsim.NewSimulator()
	links := make([]*netsim.Link, len(hops))
	for i, h := range hops {
		links[i] = netsim.NewLink(sim, h.name, int64(h.cap), 10*netsim.Millisecond, 0)
		crosstraffic.NewAggregate(sim, links[i], h.cap*h.util, 10,
			crosstraffic.ModelPareto, crosstraffic.Trimodal{}, seed+int64(i)*999_983).Start()
	}
	return sim, links
}

// OWDTraces reproduces Figs. 1–3: three 100-packet streams on a path
// with ≈ 74 Mb/s avail-bw, at rates above (96 Mb/s), below (37 Mb/s),
// and near (82 Mb/s) the avail-bw. The first must show a clear
// increasing trend, the second none, and the third a partial one.
func OWDTraces(opt Options) []OWDTrace {
	opt = opt.withDefaults()
	cases := []struct {
		figure   string
		rateMbps float64
	}{
		{"fig1", 96},
		{"fig2", 37},
		{"fig3", 82},
	}
	cfg := pathload.Config{}
	out := make([]OWDTrace, len(cases))
	forRuns(len(cases), func(i int) {
		c := cases[i]
		sim, links := hopPath(opt.runSeed(i), oregonDelaware...)
		sim.RunFor(warmup)
		prober := simprobe.New(sim, links, 10*netsim.Millisecond)
		rate := c.rateMbps * 1e6
		l, t := cfg.StreamParams(rate)
		sr, err := prober.SendStream(pathload.StreamSpec{Rate: rate, K: 100, L: l, T: t})
		if err != nil {
			panic(fmt.Sprintf("experiments: OWD trace %s: %v", c.figure, err))
		}

		tr := OWDTrace{Figure: c.figure, RateMbps: c.rateMbps, AvailBw: 155e6 * (1 - 0.5226)}
		owds := make([]float64, 0, len(sr.OWDs))
		min := 0.0
		for j, s := range sr.OWDs {
			v := s.OWD.Seconds()
			if j == 0 || v < min {
				min = v
			}
			owds = append(owds, v)
			tr.Seqs = append(tr.Seqs, s.Seq)
		}
		for _, v := range owds {
			tr.OWDms = append(tr.OWDms, (v-min)*1e3)
		}
		kind, m := core.ClassifyOWDs(owds, core.TrendConfig{})
		tr.PCT, tr.PDT = m.PCT, m.PDT
		tr.Kind = kind.String()
		if len(tr.OWDms) > 0 {
			tr.RiseMs = tr.OWDms[len(tr.OWDms)-1] - tr.OWDms[0]
		}
		out[i] = tr
	})
	return out
}
