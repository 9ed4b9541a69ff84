// Package experiments builds the paper's simulation topologies and
// reproduces every figure of its evaluation (§V–§VIII). Each FigNN
// function runs the corresponding experiment — scaled by a Scale
// parameter so benchmarks stay fast — and returns structured results
// that the cmd/repro tool renders as the paper's rows and series.
package experiments

import (
	"fmt"

	"repro/internal/crosstraffic"
	"repro/internal/mesh"
	"repro/internal/netsim"
)

// Topology describes the paper's Fig. 4 simulation setup: an h-hop
// path whose middle link is the tight link, with per-hop cross-traffic
// aggregates of independent sources.
type Topology struct {
	// Hops is the number of links h. The tight link sits at index
	// Hops/2 ("the hop in the middle of the path").
	Hops int
	// TightCap and TightUtil set the tight link: capacity C_t (bits/s)
	// and average utilization u_t, so the end-to-end avail-bw is
	// A = C_t·(1 − u_t).
	TightCap  float64
	TightUtil float64
	// Beta is the path tightness factor β = A_nt/A (Eq. 10): the
	// avail-bw of every non-tight link is β·A. β = 1 makes every link
	// a tight link. Ignored for single-hop paths.
	Beta float64
	// NonTightUtil is u_nt, the utilization of the non-tight links;
	// their capacity follows as C_nt = β·A/(1 − u_nt).
	NonTightUtil float64
	// SourcesPerHop is the number of independent cross-traffic sources
	// per link (the paper uses ten); it controls the degree of
	// statistical multiplexing.
	SourcesPerHop int
	// Model selects the cross-traffic interarrival family.
	Model crosstraffic.Model
	// Sizes overrides the cross-traffic packet size distribution;
	// nil selects the paper's trimodal mix.
	Sizes crosstraffic.SizeDist
	// BufBytes bounds each link's queue; 0 means unbounded ("links are
	// sufficiently buffered to avoid packet losses").
	BufBytes int
	// Seed makes the run reproducible; distinct seeds give
	// statistically independent runs.
	Seed int64
}

// Defaults for the paper's simulation section (§V-A).
const (
	DefaultHops          = 5
	DefaultTightCap      = 10e6
	DefaultTightUtil     = 0.6 // A = 4 Mb/s
	DefaultBeta          = 4.0
	DefaultNonTightUtil  = 0.2
	DefaultSourcesPerHop = 10
)

// DefaultTotalProp is the paper's 50 ms end-to-end propagation delay,
// spread evenly across hops.
const DefaultTotalProp = 50 * netsim.Millisecond

// withDefaults fills zero fields with the paper's defaults.
func (t Topology) withDefaults() Topology {
	if t.Hops == 0 {
		t.Hops = DefaultHops
	}
	if t.TightCap == 0 {
		t.TightCap = DefaultTightCap
	}
	if t.TightUtil == 0 {
		t.TightUtil = DefaultTightUtil
	}
	if t.Beta == 0 {
		t.Beta = DefaultBeta
	}
	if t.NonTightUtil == 0 {
		t.NonTightUtil = DefaultNonTightUtil
	}
	if t.SourcesPerHop == 0 {
		t.SourcesPerHop = DefaultSourcesPerHop
	}
	return t
}

// AvailBw returns the configured end-to-end available bandwidth
// A = C_t·(1 − u_t).
func (t Topology) AvailBw() float64 {
	t = t.withDefaults()
	return t.TightCap * (1 - t.TightUtil)
}

// A Net is a built topology: a live simulator with links wired in a
// chain and cross traffic attached.
type Net struct {
	Sim      *netsim.Simulator
	Links    []*netsim.Link
	TightIdx int
	Topo     Topology

	mesh *mesh.Mesh
}

// Tight returns the tight link.
func (n *Net) Tight() *netsim.Link { return n.Links[n.TightIdx] }

// Build constructs the simulator, links, and cross-traffic sources as
// a one-route mesh.Spec — the chain is the mesh's simplest shape, so
// mesh.Spec.Build is the only place links and per-link aggregates are
// wired. Cross traffic is started; the probe route is Links.
func (t Topology) Build() *Net {
	t = t.withDefaults()
	if t.Hops < 1 {
		panic(fmt.Sprintf("experiments: topology needs at least one hop, got %d", t.Hops))
	}
	if t.TightUtil < 0 || t.TightUtil >= 1 || t.NonTightUtil < 0 || t.NonTightUtil >= 1 {
		panic(fmt.Sprintf("experiments: utilizations must lie in [0,1): tight %v nontight %v", t.TightUtil, t.NonTightUtil))
	}
	if t.Beta < 1 {
		// β < 1 would make the "non-tight" links the tight ones.
		panic(fmt.Sprintf("experiments: path tightness factor β=%v must be ≥ 1", t.Beta))
	}
	tightIdx := t.Hops / 2
	nontight := mesh.LinkSpec{
		Capacity: t.Beta * t.AvailBw() / (1 - t.NonTightUtil),
		Util:     t.NonTightUtil,
		Prop:     DefaultTotalProp / netsim.Time(t.Hops),
		BufBytes: t.BufBytes,
	}
	spec := mesh.Spec{
		Routes:         []mesh.RouteSpec{{Name: "path"}},
		SourcesPerLink: t.SourcesPerHop,
		Model:          t.Model,
		Sizes:          t.Sizes,
		Seed:           t.Seed,
	}
	for i := 0; i < t.Hops; i++ {
		l := nontight
		l.Name = fmt.Sprintf("hop%d", i)
		if i == tightIdx || t.Hops == 1 {
			l.Capacity, l.Util = t.TightCap, t.TightUtil
			l.Name += "(tight)"
		}
		spec.Links = append(spec.Links, l)
		spec.Routes[0].Links = append(spec.Routes[0].Links, l.Name)
	}
	m := spec.MustBuild()
	return &Net{Sim: m.Sim, Links: m.Links(), TightIdx: tightIdx, Topo: t, mesh: m}
}

// Warmup advances the simulation so queues and heavy-tailed sources
// reach steady state before measurement begins.
func (n *Net) Warmup(d netsim.Time) { n.Sim.RunFor(d) }

// MeasuredAvail returns the tight link's avail-bw measured from its
// byte counters over a window that brackets fn's execution: it snapshots
// counters, runs fn, and converts the transmitted bytes to utilization.
// This is the simulation's ground truth, the "MRTG reading" of §V-B.
func (n *Net) MeasuredAvail(fn func()) float64 {
	link := n.Tight()
	before := link.Counters()
	t0 := n.Sim.Now()
	fn()
	window := n.Sim.Now() - t0
	util := netsim.Utilization(before, link.Counters(), window)
	return float64(link.Capacity()) * (1 - util)
}
