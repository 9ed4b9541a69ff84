package scenario

import (
	"fmt"

	"repro/internal/crosstraffic"
	"repro/internal/mesh"
	"repro/internal/netsim"
)

// The registry's common topology: a wide access hop in front of a
// 10 Mb/s tight link, small enough that a full grading matrix runs in
// seconds of wall clock.
const (
	wideCap  = 50e6
	wideUtil = 0.10
	tightCap = 10e6

	// The migrate scenario's first hop: loaded lightly in epoch 0,
	// saturated to migrateUtil in epoch 1 so its avail-bw (1.24 Mb/s)
	// undercuts the second hop at any registry load.
	migrateCap  = 12.4e6
	migrateIdle = 0.25
	migrateUtil = 0.90

	// twinSkew separates the twin scenario's two near-tight links by
	// 0.2 Mb/s — far inside pathload's grey resolution χ, so both hops
	// sit in the estimator's grey region.
	twinSkew = 0.02

	// flashFraction of the tight link's capacity arrives as the flash
	// crowd in the flash scenario's second epoch.
	flashFraction = 0.30
)

// twoHop is the wide→tight base spec shared by most scenarios.
func twoHop(load float64, model crosstraffic.Model, tight mesh.LinkSpec) mesh.Spec {
	tight.Name = "tight"
	tight.Capacity = tightCap
	tight.Util = load
	tight.Prop = 5 * netsim.Millisecond
	return mesh.Spec{
		Links: []mesh.LinkSpec{
			{Name: "wide", Capacity: wideCap, Util: wideUtil, Prop: 2 * netsim.Millisecond},
			tight,
		},
		Routes: []mesh.RouteSpec{{Name: "path", Links: []string{"wide", "tight"}}},
		Model:  model,
	}
}

// oneEpoch is the stationary epoch sequence.
func oneEpoch() []Epoch { return []Epoch{{}} }

// registry builds the named scenarios, in presentation order.
var registry = []struct {
	name  string
	build func(Params) Scenario
}{
	{"steady", func(p Params) Scenario {
		return Scenario{
			Name: "steady",
			Info: fmt.Sprintf("stationary Poisson load %.2f on one tight link", p.Load),
			Spec: twoHop(p.Load, crosstraffic.ModelPoisson, mesh.LinkSpec{}),
			// The control: SLoPS and min-plus should both bracket.
			Epochs: oneEpoch(),
		}
	}},
	{"lrd", func(p Params) Scenario {
		return Scenario{
			Name:        "lrd",
			Info:        fmt.Sprintf("long-range-dependent on/off load %.2f (α=1.5, H≈0.75)", p.Load),
			FailureMode: "burst clusters at every timescale widen the grey region and can push single rounds off the truth",
			Spec:        twoHop(p.Load, crosstraffic.ModelOnOff, mesh.LinkSpec{}),
			Epochs:      oneEpoch(),
		}
	}},
	{"flash", func(p Params) Scenario {
		s := Scenario{
			Name:        "flash",
			Info:        fmt.Sprintf("flash crowd: +%.0f%% of tight capacity arrives mid-run and stays", flashFraction*100),
			FailureMode: "rounds straddling the ramp report the pre-crowd truth until the fleet converges again",
			Spec:        twoHop(p.Load, crosstraffic.ModelPoisson, mesh.LinkSpec{}),
		}
		s.Epochs = []Epoch{
			{},
			{Flash: &Flash{Link: "tight", Peak: flashFraction * tightCap, RampUp: 2 * netsim.Second}},
		}
		return s
	}},
	{"migrate", func(p Params) Scenario {
		s := Scenario{
			Name:        "migrate",
			Info:        "tight link migrates from hop 1 to hop 0 mid-run (utilization step)",
			FailureMode: "estimates straddling the step are stale against the new truth for at least one round",
			Spec:        twoHop(p.Load, crosstraffic.ModelPoisson, mesh.LinkSpec{}),
		}
		s.Spec.Links[0] = mesh.LinkSpec{
			Name: "wide", Capacity: migrateCap, Util: migrateIdle, Prop: 2 * netsim.Millisecond,
		}
		s.Epochs = []Epoch{
			{},
			{Util: map[string]float64{"wide": migrateUtil}},
		}
		return s
	}},
	{"twin", func(p Params) Scenario {
		s := Scenario{
			Name:        "twin",
			Info:        fmt.Sprintf("two near-tight links %.1f Mb/s apart (multi-bottleneck grey region)", twinSkew*tightCap/1e6),
			FailureMode: "both hops queue near the boundary: grey verdicts dominate and the reported range widens",
			Spec: mesh.Spec{
				Links: []mesh.LinkSpec{
					{Name: "wide", Capacity: wideCap, Util: wideUtil, Prop: 2 * netsim.Millisecond},
					{Name: "twin-a", Capacity: tightCap, Util: p.Load, Prop: 3 * netsim.Millisecond},
					{Name: "twin-b", Capacity: tightCap, Util: p.Load + twinSkew, Prop: 3 * netsim.Millisecond},
				},
				Routes: []mesh.RouteSpec{{Name: "path", Links: []string{"wide", "twin-a", "twin-b"}}},
			},
			Epochs: oneEpoch(),
		}
		return s
	}},
	{"lossy", func(p Params) Scenario {
		return Scenario{
			Name:        "lossy",
			Info:        fmt.Sprintf("random loss %.1f%% on the tight link", p.Loss*100),
			FailureMode: "stream losses trip the >10% abort rule, fleets abort as \"rate too high\", and the search collapses to its minimum rate",
			Spec:        twoHop(p.Load, crosstraffic.ModelPoisson, mesh.LinkSpec{Loss: p.Loss}),
			Epochs:      oneEpoch(),
		}
	}},
	{"reorder", func(p Params) Scenario {
		return Scenario{
			Name: "reorder",
			Info: fmt.Sprintf("%.0f%% of tight-link packets delayed %v (reordering)", p.Reorder*100, p.ReorderDelay),
			FailureMode: "delay spikes mimic queue growth, so streams classify as increasing and SLoPS under-reports " +
				"(reordered probes also count toward the loss-abort rule at the receiver's straggler cutoff)",
			Spec:   twoHop(p.Load, crosstraffic.ModelPoisson, mesh.LinkSpec{Reorder: p.Reorder, ReorderDelay: p.ReorderDelay}),
			Epochs: oneEpoch(),
		}
	}},
}

// Names lists the registry's scenarios in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// Get builds a registry scenario with the given parameters and
// validates it, so parameters that overload a link in some epoch (a
// flash crowd on an already busy tight link) error here instead of at
// Build. Unknown names error.
func Get(name string, p Params) (Scenario, error) {
	p = p.withDefaults()
	if p.Load < 0 || p.Load > 0.95 {
		return Scenario{}, fmt.Errorf("scenario: load %v outside (0, 0.95]", p.Load)
	}
	for _, r := range registry {
		if r.name == name {
			return checked(r.build(p))
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
}

// checked returns s, or the error validate finds in it: Get and GetFleet
// hand out only scenarios that build.
func checked(s Scenario) (Scenario, error) {
	if err := s.validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}
