// Package mesh builds shared-backbone fleet topologies: N monitored
// paths declared as routes over one pool of links, on one simulator.
//
// It generalizes the single-path chain of internal/experiments.Topology
// to a link graph. Paths that share links contend — their probe streams
// queue against each other and against cross traffic on the common
// hops — which is the scenario family the per-path-shard fleet designs
// (netsim.Lockstep) cannot express. Every built path still carries its
// analytic ground truth: the tight link over its route and the
// end-to-end available bandwidth A = min over the route of C_l·(1−u_l),
// valid in the absence of co-probing; fleet experiments measure how far
// co-probing moves the estimate from exactly that baseline.
//
// Parameterized backbone shapes (Star, Chain, Tree, Disjoint) cover the
// canonical contention patterns; arbitrary Spec route lists cover the
// rest.
package mesh

import (
	"fmt"

	"repro/internal/crosstraffic"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// Defaults for zero Spec fields.
const (
	// DefaultSourcesPerLink is the cross-traffic multiplexing degree per
	// link. Bursty aggregates of a few sources keep SLoPS trends
	// detectable (smooth high-multiplexing CBR defeats them at low
	// utilization).
	DefaultSourcesPerLink = 6
)

// A LinkSpec declares one link of the shared pool.
type LinkSpec struct {
	// Name identifies the link in routes; unique within a Spec.
	Name string
	// Capacity is C_l in bits/s.
	Capacity float64
	// Util is the link's mean cross-traffic utilization u_l in [0, 1).
	Util float64
	// Prop is the propagation delay.
	Prop netsim.Time
	// BufBytes bounds the drop-tail queue; 0 means unbounded.
	BufBytes int
	// Loss erases arriving packets with this probability in [0, 1)
	// (wire erasure, counted apart from buffer drops).
	Loss float64
	// Reorder delays transmitted packets by ReorderDelay with this
	// probability in [0, 1), letting later packets overtake them.
	Reorder float64
	// ReorderDelay is the extra delivery delay of reordered packets;
	// required positive when Reorder > 0.
	ReorderDelay netsim.Time
}

// availBw returns the link's analytic available bandwidth C_l·(1−u_l).
func (l LinkSpec) availBw() float64 { return l.Capacity * (1 - l.Util) }

// A RouteSpec declares one monitored path as a sequence of link names.
type RouteSpec struct {
	// Name identifies the path; unique within a Spec.
	Name string
	// Links are the traversed link names, in order. Links may appear in
	// any number of routes; that is the point.
	Links []string
}

// A Spec declares a whole shared-backbone fleet topology.
type Spec struct {
	Links  []LinkSpec
	Routes []RouteSpec
	// SourcesPerLink is the number of independent cross-traffic sources
	// per link; 0 selects DefaultSourcesPerLink.
	SourcesPerLink int
	// Model selects the cross-traffic interarrival family (the zero
	// value is Poisson).
	Model crosstraffic.Model
	// Sizes overrides the cross-traffic packet size distribution; nil
	// selects the paper's trimodal mix.
	Sizes crosstraffic.SizeDist
	// Seed makes the build reproducible; per-link traffic seeds are
	// derived from it.
	Seed int64
}

// Validate checks the spec for structural errors: duplicate or missing
// names, empty routes, out-of-range parameters.
func (s Spec) Validate() error {
	if len(s.Links) == 0 {
		return fmt.Errorf("mesh: spec has no links")
	}
	if len(s.Routes) == 0 {
		return fmt.Errorf("mesh: spec has no routes")
	}
	links := map[string]bool{}
	for _, l := range s.Links {
		if l.Name == "" {
			return fmt.Errorf("mesh: link with empty name")
		}
		if links[l.Name] {
			return fmt.Errorf("mesh: duplicate link %q", l.Name)
		}
		links[l.Name] = true
		if l.Capacity <= 0 {
			return fmt.Errorf("mesh: link %q: capacity must be positive, got %v", l.Name, l.Capacity)
		}
		if l.Util < 0 || l.Util >= 1 {
			return fmt.Errorf("mesh: link %q: utilization %v outside [0, 1)", l.Name, l.Util)
		}
		if l.Prop < 0 || l.BufBytes < 0 {
			return fmt.Errorf("mesh: link %q: negative propagation delay or buffer", l.Name)
		}
		if l.Loss < 0 || l.Loss >= 1 {
			return fmt.Errorf("mesh: link %q: loss %v outside [0, 1)", l.Name, l.Loss)
		}
		if l.Reorder < 0 || l.Reorder >= 1 {
			return fmt.Errorf("mesh: link %q: reorder %v outside [0, 1)", l.Name, l.Reorder)
		}
		if l.Reorder > 0 && l.ReorderDelay <= 0 {
			return fmt.Errorf("mesh: link %q: reorder needs a positive ReorderDelay, got %v", l.Name, l.ReorderDelay)
		}
		if l.ReorderDelay < 0 {
			return fmt.Errorf("mesh: link %q: negative ReorderDelay %v", l.Name, l.ReorderDelay)
		}
	}
	routes := map[string]bool{}
	for _, r := range s.Routes {
		if r.Name == "" {
			return fmt.Errorf("mesh: route with empty name")
		}
		if routes[r.Name] {
			return fmt.Errorf("mesh: duplicate route %q", r.Name)
		}
		routes[r.Name] = true
		if len(r.Links) == 0 {
			return fmt.Errorf("mesh: route %q is empty", r.Name)
		}
		hops := map[string]bool{}
		for _, name := range r.Links {
			if !links[name] {
				return fmt.Errorf("mesh: route %q uses unknown link %q", r.Name, name)
			}
			if hops[name] {
				return fmt.Errorf("mesh: route %q traverses link %q twice", r.Name, name)
			}
			hops[name] = true
		}
	}
	return nil
}

// A Path is one built route with its analytic ground truth.
type Path struct {
	// Name is the route's identifier, used as the monitor path ID.
	Name string
	// Route is the traversed links, in order.
	Route []*netsim.Link
	// LinkNames mirrors Route as spec names.
	LinkNames []string
	// TightIdx is the hop index of the tight link: the route's minimum
	// of C_l·(1−u_l). When two hops tie exactly, the earliest wins —
	// the scan keeps the first minimum, matching the paper's convention
	// that "the" tight link is well defined even on balanced paths.
	TightIdx int

	avail float64
}

// TightLink returns the path's tight link.
func (p *Path) TightLink() *netsim.Link { return p.Route[p.TightIdx] }

// AvailBw returns the path's analytic end-to-end available bandwidth
// A = min over the route of C_l·(1−u_l), excluding any probe load.
func (p *Path) AvailBw() float64 { return p.avail }

// A Mesh is a built Spec: one live simulator with the link pool wired,
// cross traffic attached and started, and per-path ground truth
// precomputed.
type Mesh struct {
	Sim  *netsim.Simulator
	Spec Spec

	links  []*netsim.Link
	byLink map[string]*netsim.Link
	paths  []*Path
	byPath map[string]*Path
}

// Build constructs the simulator, links, routes, and cross traffic.
// The built mesh's Spec carries the defaults Build filled in.
func (s Spec) Build() (*Mesh, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.SourcesPerLink == 0 {
		s.SourcesPerLink = DefaultSourcesPerLink
	}
	if s.Sizes == nil {
		s.Sizes = crosstraffic.Trimodal{}
	}

	m := &Mesh{
		Sim:    netsim.NewSimulator(),
		Spec:   s,
		byLink: map[string]*netsim.Link{},
		byPath: map[string]*Path{},
	}
	specByName := map[string]LinkSpec{}
	for i, ls := range s.Links {
		link := netsim.NewLink(m.Sim, ls.Name, int64(ls.Capacity), ls.Prop, ls.BufBytes)
		if ls.Loss > 0 || ls.Reorder > 0 {
			link.Impair(netsim.Impairment{
				Loss:         ls.Loss,
				Reorder:      ls.Reorder,
				ReorderDelay: ls.ReorderDelay,
				// A distinct stride keeps impairment draws independent of
				// the per-link cross-traffic seeds derived below.
				Seed: s.Seed + int64(i)*500_009 + 17,
			})
		}
		m.links = append(m.links, link)
		m.byLink[ls.Name] = link
		specByName[ls.Name] = ls

		if rate := ls.Capacity * ls.Util; rate > 0 {
			m.CrossTraffic(link, rate, s.Seed+int64(i)*1_000_003).Start()
		}
	}
	for _, rs := range s.Routes {
		p := &Path{Name: rs.Name}
		for hop, name := range rs.Links {
			ls := specByName[name]
			p.Route = append(p.Route, m.byLink[name])
			p.LinkNames = append(p.LinkNames, name)
			if hop == 0 || ls.availBw() < p.avail {
				p.TightIdx, p.avail = hop, ls.availBw()
			}
		}
		m.paths = append(m.paths, p)
		m.byPath[p.Name] = p
	}
	return m, nil
}

// MustBuild is Build for known-good specs (the shape constructors).
func (s Spec) MustBuild() *Mesh {
	m, err := s.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// Links returns the built links in spec order.
func (m *Mesh) Links() []*netsim.Link { return m.links }

// Link returns a link by name, or nil.
func (m *Mesh) Link(name string) *netsim.Link { return m.byLink[name] }

// Paths returns the built paths in spec order.
func (m *Mesh) Paths() []*Path { return m.paths }

// Path returns a path by name, or nil.
func (m *Mesh) Path(name string) *Path { return m.byPath[name] }

// Warmup advances the simulation so queues and bursty sources reach
// steady state. Call it before creating probers on the mesh.
func (m *Mesh) Warmup(d netsim.Time) { m.Sim.Run(m.Sim.Now() + d) }

// CrossTraffic builds a stopped cross-traffic aggregate of rate bits/s
// on link, multiplexed and shaped as the spec's base load is:
// SourcesPerLink sources of its Model drawing packet sizes from Sizes.
func (m *Mesh) CrossTraffic(link *netsim.Link, rate float64, seed int64) *crosstraffic.Aggregate {
	return crosstraffic.NewAggregate(m.Sim, link, rate, m.Spec.SourcesPerLink, m.Spec.Model, m.Spec.Sizes, seed)
}

// TightOverlaps returns the fleet's tight-overlap graph: for every
// path, the sibling paths it shares a link with that is the tight link
// of at least one of the two — the pairs whose co-probing lands
// contention exactly on a hop being estimated, the bias the contention
// experiment measures at ≈ −3 Mb/s. The graph is keyed by path name,
// neighbor lists follow spec (path) order, and paths with no such
// sibling map to nil. Feed it to schedule.NewStagger to keep those
// sessions from measuring at once.
func (m *Mesh) TightOverlaps() map[string][]string {
	crosses := func(a, b *Path) bool {
		for _, n := range b.LinkNames {
			if n == a.LinkNames[a.TightIdx] {
				return true
			}
		}
		return false
	}
	g := make(map[string][]string, len(m.paths))
	for _, p := range m.paths {
		g[p.Name] = nil
	}
	for i, a := range m.paths {
		for _, b := range m.paths[i+1:] {
			if crosses(a, b) || crosses(b, a) {
				g[a.Name] = append(g[a.Name], b.Name)
				g[b.Name] = append(g[b.Name], a.Name)
			}
		}
	}
	return g
}

// SequencedProbers creates one deterministic co-scheduled prober per
// path, in path order, all on the mesh's simulator. Measure with one
// goroutine per prober, each ending in Retire; the fleet's contention
// pattern is then reproducible run-to-run. The sequencer is returned
// for NewSequencedDriver and OnRoundBoundary.
func (m *Mesh) SequencedProbers(reverseDelay netsim.Time) (*simprobe.Sequencer, []*simprobe.Prober) {
	seq := simprobe.NewSequencer(m.Sim)
	probers := make([]*simprobe.Prober, len(m.paths))
	for i, p := range m.paths {
		probers[i] = seq.NewProber(p.Route, reverseDelay)
	}
	return seq, probers
}

// MonitorFleet wires the mesh into a sequenced pathload.Monitor: one
// Sequencer-backed prober per path registered under the path's name,
// all driven by a simprobe.SequencedDriver installed as the monitor's
// Driver. Sessions park at the fleet round barrier between rounds and
// spend scheduler gaps in virtual time, so the whole monitored fleet
// advances on one virtual clock and an identical configuration replays
// byte-for-byte regardless of host scheduling. Warm the mesh up first;
// install any OnRoundBoundary hook (fleet-scenario epoch advances,
// link-counter snapshots) on the returned driver before Start; the
// caller starts and owns the returned monitor.
//
// cfg.Admission passes through: the driver waits for it in virtual
// time, so a staggered fleet (schedule.NewStagger over TightOverlaps)
// replays byte-for-byte too. With a nil Admission every session is
// admitted at once, whatever cfg.Workers says.
func (m *Mesh) MonitorFleet(cfg pathload.MonitorConfig, reverseDelay netsim.Time) (*pathload.Monitor, *simprobe.SequencedDriver, error) {
	seq, probers := m.SequencedProbers(reverseDelay)
	drv := simprobe.NewSequencedDriver(seq)
	cfg.Driver = drv
	mon, err := pathload.NewMonitor(cfg)
	if err != nil {
		return nil, nil, err
	}
	for i, p := range m.paths {
		drv.Register(p.Name, probers[i])
		if err := mon.AddPath(p.Name, probers[i]); err != nil {
			return nil, nil, err
		}
	}
	return mon, drv, nil
}
