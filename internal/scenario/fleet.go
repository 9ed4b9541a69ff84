package scenario

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/netsim"
)

// Fleet scenarios: whole monitored fleets over a shared mesh.Shape
// backbone facing one epoch sequence, with per-route per-epoch analytic
// truth (RouteTruth). They are what a sequenced mesh.MonitorFleet is
// for — the epoch Advance fires in the driver's round-boundary hook, so
// every path sees the same regime in the same fleet round and the whole
// run replays byte-for-byte.
//
// Epoch-1 regimes below are chosen so the truth change is unambiguous
// at pathload's resolution (ω + χ = 1.5 Mb/s) and, for migrate-chain,
// so that *every* path's tight hop moves.
const (
	// migrate-chain epoch 1: the loaded even hops (10 Mb/s at 55%,
	// A = 4.5 Mb/s) calm down to 35% while the quiet odd hops surge to
	// 60% — every path's tight link migrates from its even hop to its
	// odd hop and the fleet-wide truth steps 4.5 → 4.0 Mb/s.
	chainCalmUtil  = 0.35
	chainSurgeUtil = 0.60

	// flash-star epoch 1: a flash crowd on the shared core (10 Mb/s at
	// 55%, A = 4.5 Mb/s) peaking at 3 Mb/s — every path's truth drops
	// to 1.5 Mb/s through the one hop they all share.
	starFlashPeak = 3e6

	// surge-disjoint epoch 1: per-link utilization steps on the
	// isolated 10 Mb/s / 50% lanes, patterned by path index mod 4 so
	// neighbors in the rendered table move differently (truths 5 →
	// 2 / 3 / 5 / 4 Mb/s).
	surgeHeavy = 0.80
	surgeMid   = 0.70
	surgeLight = 0.60
)

// fleetRegistry builds the named fleet scenarios for an n-path fleet,
// in presentation order.
var fleetRegistry = []struct {
	name  string
	build func(n int) Scenario
}{
	{"migrate-chain", func(n int) Scenario {
		util := map[string]float64{}
		for h := 0; h <= n; h++ {
			if h%2 == 0 {
				util[fmt.Sprintf("hop-%02d", h)] = chainCalmUtil
			} else {
				util[fmt.Sprintf("hop-%02d", h)] = chainSurgeUtil
			}
		}
		return Scenario{
			Name:        "migrate-chain",
			Info:        "every chain path's tight link migrates from its even hop to its odd hop (fleet-wide utilization swap)",
			FailureMode: "rounds straddling the swap grade against the new truth while reporting the old hop's avail-bw",
			Spec:        mesh.Chain(n, 0),
			Epochs: []Epoch{
				{},
				{Util: util},
			},
		}
	}},
	{"flash-star", func(n int) Scenario {
		return Scenario{
			Name:        "flash-star",
			Info:        "flash crowd on the star's shared core: every path's truth collapses at once",
			FailureMode: "the whole fleet goes stale together — no path has an unaffected vantage during the ramp",
			Spec:        mesh.Star(n, 0),
			Epochs: []Epoch{
				{},
				{Flash: &Flash{Link: "core", Peak: starFlashPeak, RampUp: 2 * netsim.Second}},
			},
		}
	}},
	{"surge-disjoint", func(n int) Scenario {
		util := map[string]float64{}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("lone-%02d", i)
			switch i % 4 {
			case 0:
				util[name] = surgeHeavy
			case 1:
				util[name] = surgeMid
			case 3:
				util[name] = surgeLight
				// case 2: unchanged — the in-fleet control lane.
			}
		}
		return Scenario{
			Name: "surge-disjoint",
			Info: "independent per-lane load steps on a disjoint fleet (each path has its own new truth)",
			Spec: mesh.Disjoint(n, 0),
			Epochs: []Epoch{
				{},
				{Util: util},
			},
		}
	}},
	{"steady-disjoint", func(n int) Scenario {
		return Scenario{
			Name: "steady-disjoint",
			Info: "stationary disjoint lanes: the replay control (sequenced fleet must equal per-path solo runs)",
			Spec: mesh.Disjoint(n, 0),
			Epochs: []Epoch{
				{},
			},
		}
	}},
}

// FleetNames lists the fleet scenarios in presentation order.
func FleetNames() []string {
	out := make([]string, len(fleetRegistry))
	for i, r := range fleetRegistry {
		out[i] = r.name
	}
	return out
}

// GetFleet builds the named fleet scenario for an n-path fleet and
// validates it as Get does. Unknown names and non-positive fleet sizes
// error.
func GetFleet(name string, n int) (Scenario, error) {
	if n < 1 {
		return Scenario{}, fmt.Errorf("scenario: fleet %q needs at least one path, got %d", name, n)
	}
	for _, r := range fleetRegistry {
		if r.name == name {
			return checked(r.build(n))
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown fleet scenario %q (have %v)", name, FleetNames())
}
