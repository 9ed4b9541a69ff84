// Package scenario is a composable library of adversarial measurement
// scenarios over mesh/crosstraffic/netsim: the conditions where SLoPS
// is known to bend (§VI dynamics) — long-range-dependent cross traffic,
// flash crowds, tight-link migration, multi-bottleneck grey regions,
// random loss and reordering.
//
// A Scenario is a mesh.Spec plus a sequence of epochs. Each epoch
// overrides per-link utilizations and may add a flash-crowd ramp; the
// analytic ground truth (avail-bw and tight hop) is recomputed per
// epoch. Epochs advance at measurement-round boundaries via
// Instance.Advance — boundary-driven, not wall-clock-driven, because a
// SLoPS run's virtual duration is load-dependent and unpredictable.
// Mid-epoch the built simulation is stationary, so "ground truth during
// round r" is well defined: it is the truth of the epoch the round ran
// in.
package scenario

import (
	"fmt"

	"repro/internal/crosstraffic"
	"repro/internal/mesh"
	"repro/internal/netsim"
)

// Params tunes the registry's scenarios. Zero fields take defaults.
type Params struct {
	// Load is the tight link's cross-traffic utilization (default 0.55).
	Load float64
	// Loss is the lossy scenario's erase probability (default 0.03,
	// enough that most 100-packet streams trip pathload's 10% abort on
	// at least one stream of a fleet over a run).
	Loss float64
	// Reorder is the reorder scenario's delay probability (default 0.08).
	Reorder float64
	// ReorderDelay is the extra delivery delay of reordered packets
	// (default 5 ms, large against per-packet OWD noise).
	ReorderDelay netsim.Time
}

func (p Params) withDefaults() Params {
	if p.Load == 0 {
		p.Load = 0.55
	}
	if p.Loss == 0 {
		p.Loss = 0.03
	}
	if p.Reorder == 0 {
		p.Reorder = 0.08
	}
	if p.ReorderDelay == 0 {
		p.ReorderDelay = 5 * netsim.Millisecond
	}
	return p
}

// A Flash adds a flash-crowd ramp on one link for the duration of an
// epoch: arrivals ramp linearly to Peak bits/s over RampUp, then hold
// until the epoch ends.
type Flash struct {
	Link   string
	Peak   float64
	RampUp netsim.Time
}

// An Epoch is one stationary regime of a scenario. Util overrides the
// spec's per-link utilizations (absent links keep their spec value);
// Flash, if non-nil, runs a ramp source through the epoch.
type Epoch struct {
	Util  map[string]float64
	Flash *Flash
}

// A Scenario declares a topology plus its epoch sequence.
type Scenario struct {
	// Name identifies the scenario in the registry and CLI.
	Name string
	// Info is a one-line description for tables and docs.
	Info string
	// FailureMode documents the estimator behavior the scenario is
	// designed to expose ("" when SLoPS is expected to track).
	FailureMode string

	// Spec is the base topology: one route for the classic single-path
	// scenarios, several for fleet scenarios over a shared backbone.
	// Link utilizations are epoch-0 values (later epochs override via
	// Epochs).
	Spec mesh.Spec
	// Epochs holds at least one entry; entry 0 applies from Build on.
	Epochs []Epoch
}

// validate extends mesh validation with the epoch contract.
func (s Scenario) validate() error {
	if err := s.Spec.Validate(); err != nil {
		return err
	}
	if len(s.Spec.Routes) < 1 {
		return fmt.Errorf("scenario %q: want at least one route, got %d", s.Name, len(s.Spec.Routes))
	}
	if len(s.Epochs) == 0 {
		return fmt.Errorf("scenario %q: no epochs", s.Name)
	}
	known := map[string]float64{}
	for _, l := range s.Spec.Links {
		known[l.Name] = l.Capacity
	}
	for e, ep := range s.Epochs {
		for name, u := range ep.Util {
			if _, ok := known[name]; !ok {
				return fmt.Errorf("scenario %q: epoch %d overrides unknown link %q", s.Name, e, name)
			}
			if u < 0 || u >= 1 {
				return fmt.Errorf("scenario %q: epoch %d: link %q utilization %v outside [0, 1)", s.Name, e, name, u)
			}
		}
		if f := ep.Flash; f != nil {
			cap, ok := known[f.Link]
			if !ok {
				return fmt.Errorf("scenario %q: epoch %d: flash on unknown link %q", s.Name, e, f.Link)
			}
			if f.Peak <= 0 || f.Peak >= cap {
				return fmt.Errorf("scenario %q: epoch %d: flash peak %v outside (0, link capacity %v)", s.Name, e, f.Peak, cap)
			}
			if f.RampUp <= 0 {
				return fmt.Errorf("scenario %q: epoch %d: flash ramp-up must be positive, got %v", s.Name, e, f.RampUp)
			}
		}
		for _, l := range s.Spec.Links {
			if a := s.availIn(l, e); a < 0 {
				return fmt.Errorf("scenario %q: epoch %d: link %q offered %v b/s beyond its capacity", s.Name, e, l.Name, -a)
			}
		}
	}
	return nil
}

// utilIn returns link l's utilization in epoch e (spec value unless
// overridden).
func (s Scenario) utilIn(l mesh.LinkSpec, e int) float64 {
	if u, ok := s.Epochs[e].Util[l.Name]; ok {
		return u
	}
	return l.Util
}

// availIn returns link l's analytic avail-bw in epoch e, C·(1−u_e),
// less the epoch's flash peak when the flash is on l.
func (s Scenario) availIn(l mesh.LinkSpec, e int) float64 {
	a := l.Capacity * (1 - s.utilIn(l, e))
	if f := s.Epochs[e].Flash; f != nil && f.Link == l.Name {
		a -= f.Peak
	}
	return a
}

// RouteTruth returns the analytic ground truth of route r in epoch e:
// the end-to-end available bandwidth A = min over the route of
// C_l·(1−u_l) (the flash peak counts as utilization on its link) and
// the tight hop index, earliest hop winning exact ties. Fleet
// scenarios have one truth per route per epoch; a migrating-tight-link
// epoch moves every route's tight hop at once.
func (s Scenario) RouteTruth(e, r int) (avail float64, tightHop int) {
	byName := map[string]mesh.LinkSpec{}
	for _, l := range s.Spec.Links {
		byName[l.Name] = l
	}
	for hop, name := range s.Spec.Routes[r].Links {
		a := s.availIn(byName[name], e)
		if hop == 0 || a < avail {
			avail, tightHop = a, hop
		}
	}
	return avail, tightHop
}

// TruthForEpoch is RouteTruth for the first route — the whole truth of
// a classic single-path scenario.
func (s Scenario) TruthForEpoch(e int) (avail float64, tightHop int) {
	return s.RouteTruth(e, 0)
}

// An Instance is one built, running scenario: a live mesh whose link
// pool carries the epoch-0 regime, plus the stopped delta aggregates
// and flash sources of every later epoch, ready to toggle at Advance.
type Instance struct {
	Scenario Scenario
	Mesh     *mesh.Mesh
	// Paths holds the scenario's monitored routes in spec order; Path
	// is the first of them, the whole fleet of a single-path scenario.
	Paths []*mesh.Path
	Path  *mesh.Path

	epoch   int
	deltas  [][]*crosstraffic.Aggregate // per epoch, the extra load above the base build
	flashes []*crosstraffic.RampSource  // per epoch, nil when the epoch has no flash
}

// Build constructs the instance. The built mesh's links carry, for each
// link, the minimum utilization across epochs; each epoch's surplus
// (u_e − u_min)·C runs as a separate delta aggregate toggled at epoch
// boundaries, so utilization shifts take effect without rebuilding the
// simulator mid-run. Epoch 0's deltas are started here — warm the mesh
// up after Build and the warmup already reflects epoch 0.
func (s Scenario) Build(seed int64) (*Instance, error) {
	// Get and GetFleet validated s, but its fields are exported and
	// callers edit them (a fleet scenario cut to one route), so check again.
	if err := s.validate(); err != nil {
		return nil, err
	}
	// Rewrite the spec: base util = per-link minimum across epochs.
	base := s.Spec
	base.Seed = seed
	base.Links = append([]mesh.LinkSpec(nil), s.Spec.Links...)
	for i, l := range base.Links {
		min := s.utilIn(l, 0)
		for e := 1; e < len(s.Epochs); e++ {
			if u := s.utilIn(l, e); u < min {
				min = u
			}
		}
		base.Links[i].Util = min
	}
	m, err := base.Build()
	if err != nil {
		return nil, err
	}

	inst := &Instance{Scenario: s, Mesh: m, Paths: m.Paths(), Path: m.Paths()[0]}
	for e := range s.Epochs {
		var ds []*crosstraffic.Aggregate
		for i, l := range s.Spec.Links {
			delta := (s.utilIn(l, e) - base.Links[i].Util) * l.Capacity
			if delta <= 0 {
				continue
			}
			ds = append(ds, m.CrossTraffic(m.Link(l.Name), delta, seed+7_654_321*int64(e+1)+int64(i)*1_000_003))
		}
		inst.deltas = append(inst.deltas, ds)
		var ramp *crosstraffic.RampSource
		if f := s.Epochs[e].Flash; f != nil {
			ramp = crosstraffic.NewRampSource(m.Sim, m.Link(f.Link), f.Peak,
				f.RampUp, 0, netsim.Second, m.Spec.Sizes, seed+13*int64(e+1))
		}
		inst.flashes = append(inst.flashes, ramp)
	}
	inst.startEpoch(0)
	return inst, nil
}

// MustBuild is Build for known-good scenarios (the registry's).
func (s Scenario) MustBuild(seed int64) *Instance {
	inst, err := s.Build(seed)
	if err != nil {
		panic(err)
	}
	return inst
}

func (i *Instance) startEpoch(e int) {
	for _, d := range i.deltas[e] {
		d.Start()
	}
	if r := i.flashes[e]; r != nil {
		r.Start()
	}
}

func (i *Instance) stopEpoch(e int) {
	for _, d := range i.deltas[e] {
		d.Stop()
	}
	if r := i.flashes[e]; r != nil {
		r.Stop()
	}
}

// Epoch returns the current epoch index.
func (i *Instance) Epoch() int { return i.epoch }

// Epochs returns the scenario's epoch count.
func (i *Instance) Epochs() int { return len(i.Scenario.Epochs) }

// Advance moves the live simulation to the next epoch — stop the
// outgoing epoch's surplus load, start the incoming one's — and reports
// whether it advanced (false at the final epoch). Call it only between
// measurement rounds, from the goroutine driving the simulator.
func (i *Instance) Advance() bool {
	if i.epoch+1 >= len(i.Scenario.Epochs) {
		return false
	}
	i.stopEpoch(i.epoch)
	i.epoch++
	i.startEpoch(i.epoch)
	return true
}

// AdvanceToRound brings the instance to the epoch that measurement
// round `round` of `rounds` runs in — rounds split evenly across epochs,
// epoch(r) = r·E/rounds — letting each new regime settle for `settle`
// of simulated time, and returns how many epochs it advanced. Like
// Advance, call it only at a round boundary, from the goroutine driving
// the simulator.
func (i *Instance) AdvanceToRound(round, rounds int, settle netsim.Time) int {
	n := 0
	for i.epoch < round*i.Epochs()/rounds && i.Advance() {
		i.Sim().RunFor(settle)
		n++
	}
	return n
}

// Truth returns the current epoch's analytic available bandwidth of
// the first route.
func (i *Instance) Truth() float64 {
	a, _ := i.Scenario.TruthForEpoch(i.epoch)
	return a
}

// TightHop returns the current epoch's tight hop index on the first
// route.
func (i *Instance) TightHop() int {
	_, h := i.Scenario.TruthForEpoch(i.epoch)
	return h
}

// RouteTruth returns the current epoch's analytic available bandwidth
// and tight hop of route r.
func (i *Instance) RouteTruth(r int) (avail float64, tightHop int) {
	return i.Scenario.RouteTruth(i.epoch, r)
}

// Sim returns the instance's simulator.
func (i *Instance) Sim() *netsim.Simulator { return i.Mesh.Sim }
