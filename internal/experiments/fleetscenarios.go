package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/tsstore"

	pathload "repro"
)

// Fleet-scenario parameters. The interval must comfortably exceed the
// cross-path round-end skew: a sequenced session's next round starts at
// its *own* previous round end plus its scheduler gap, so as long as
// the smallest gap (Interval·(1−Jitter)) outlasts how far siblings'
// round ends drift apart, a path's timeline is identical with or
// without the rest of the fleet probing — the solo-replay control below
// checks exactly that, and checks the precondition itself first
// (FleetCell.GapSlack: when it is not positive a late barrier delayed a
// start, the path met the cross traffic at another phase, and a forked
// transcript is the expected result). The skew is cumulative (nothing
// re-aligns the paths) and grows with the spread of round durations
// (6–15 s here: a search of clear fleets decided after nine streams
// against one of grey fleets that run to twelve over more rates) and
// with the jitter itself, so no interval makes the precondition
// certain; it is sized on seeds 1–40 of the control cell. At 15 s the
// slack is positive on 36 of them (median 5.7 s) but not on the
// golden's (−0.3 s); at 20 s on 37 (median 9.5 s; 9.3 s on the
// golden's), and its sign predicted the solo-replay verdict in every
// one of those cells.
const (
	fleetPaths    = 4
	fleetInterval = 20 * time.Second // virtual, via the sequenced driver
	fleetJitter   = 0.2
)

// A FleetRound is one path's measurement round inside a fleet cell,
// graded against its own route's truth in the epoch the round ran in.
type FleetRound struct {
	Path         string
	Round, Epoch int
	// Truth is the route's analytic avail-bw in the round's epoch.
	Truth float64
	// At is the path-local virtual time offset of the round's start.
	At time.Duration
	// Lo and Hi bracket the reported range; Grey marks a grey region.
	Lo, Hi float64
	Grey   bool
	// Err is the measurement error text ("" for successful rounds).
	Err string
}

// Hit reports whether the round's range brackets its epoch truth
// within the shared scenario slack.
func (r FleetRound) Hit() bool {
	return r.Err == "" && pathload.Brackets(r.Lo, r.Hi, r.Truth, scenarioSlack)
}

// A FleetLinkEpoch is one backbone link's span-weighted mean
// utilization over the fleet rounds that ran in one epoch, recorded by
// mesh.LinkRecorder at the driver's round boundaries — the per-link
// view the MRTG export serves.
type FleetLinkEpoch struct {
	Link     string
	Epoch    int
	Capacity float64
	Util     float64
}

// AvailBw returns the link's windowed spare capacity C·(1−u).
func (l FleetLinkEpoch) AvailBw() float64 { return l.Capacity * (1 - l.Util) }

// A FleetCell is one fleet scenario's monitored run: every path's
// rounds plus the backbone's per-link per-epoch utilization, and — for
// the stationary control — the solo-replay verdict per path.
type FleetCell struct {
	Scenario, Info string
	Rounds         []FleetRound // sorted by (path, round)
	Links          []FleetLinkEpoch
	// SoloMatch holds, for the steady-disjoint control only, one entry
	// per path: whether the path's fleet transcript is byte-identical
	// to a fresh solo run over an identically seeded mesh.
	SoloMatch []bool
	// GapSlack is that control's precondition, measured: the least
	// distance from a round barrier's release to the gap anchor of a
	// round it released (simprobe.SequencedDriver.GapSlack; zero when a
	// single round spent no gap). Not positive means a round started
	// late, and a forked solo transcript is then the expected result,
	// not a replay bug.
	GapSlack time.Duration
}

// Hits counts bracketing rounds.
func (c FleetCell) Hits() int {
	n := 0
	for _, r := range c.Rounds {
		if r.Hit() {
			n++
		}
	}
	return n
}

// A FleetScenariosResult is the whole fleet-scenario matrix.
type FleetScenariosResult struct {
	Cells        []FleetCell
	K, N, Rounds int
}

// FleetScenarios runs every registry fleet scenario as a sequenced
// mesh.MonitorFleet: fleetPaths sessions over one shared backbone on
// one virtual clock, epochs advanced in the driver's round-boundary
// hook so every path changes regime in the same fleet round, per-link
// utilization recorded at the same boundaries. Cells run on forRuns'
// pool, each on an isolated seeded simulation: identical Options give
// byte-identical results at any GOMAXPROCS, and the steady-disjoint cell
// additionally proves each path's fleet transcript equals a fresh solo
// run (the PR 3 disjoint-control argument, lifted to whole monitor
// sessions).
func FleetScenarios(opt Options) FleetScenariosResult {
	opt = opt.withDefaults()
	cfg := contentionConfig(opt)
	rounds := opt.runs(4)

	names := scenario.FleetNames()
	cells := make([]FleetCell, len(names))
	forRuns(len(names), func(i int) { cells[i] = runFleetCell(names[i], rounds, opt.runSeed(i), cfg) })
	return FleetScenariosResult{Cells: cells, K: cfg.PacketsPerStream, N: cfg.StreamsPerFleet, Rounds: rounds}
}

// fleetMonitorConfig is the MonitorConfig shared by the fleet run and
// its solo-replay controls — identical by construction, so a transcript
// difference can only come from the co-probing itself.
func fleetMonitorConfig(rounds int, seed int64, cfg pathload.Config) pathload.MonitorConfig {
	return pathload.MonitorConfig{
		Rounds:   rounds,
		Interval: fleetInterval,
		Jitter:   fleetJitter,
		Seed:     seed,
		Config:   cfg,
		Buffer:   fleetPaths * rounds, // publish never blocks a session
	}
}

// runFleetCell measures one fleet scenario end to end.
func runFleetCell(name string, rounds int, seed int64, cfg pathload.Config) FleetCell {
	s, err := scenario.GetFleet(name, fleetPaths)
	if err != nil {
		panic(fmt.Sprintf("experiments: fleetscenarios: %v", err))
	}
	inst := s.MustBuild(seed)
	inst.Mesh.Warmup(warmup)

	monCfg := fleetMonitorConfig(rounds, seed, cfg)
	mon, drv, err := inst.Mesh.MonitorFleet(monCfg, reverseDelay)
	if err != nil {
		panic(fmt.Sprintf("experiments: fleetscenarios: %s: %v", name, err))
	}

	// The round-boundary hook, running with exclusive simulator access
	// while every session is parked at the barrier: close the per-link
	// utilization window of the round just finished (so each window
	// covers exactly one regime), then advance the epoch if fleet round
	// n belongs to a later one — rounds split evenly across epochs,
	// epoch(r) = r·E/rounds, exactly like the single-path cells.
	links := tsstore.New(tsstore.Config{})
	rec := inst.Mesh.NewLinkRecorder(links)
	epochs := inst.Epochs()
	drv.OnRoundBoundary(func(n int) {
		rec.Snapshot(n)
		inst.AdvanceToRound(n, rounds, scenarioSettle)
	})

	samples := collectRun(mon)
	rec.Snapshot(rounds) // the last round's window; the fleet is done

	// Grade each sample against its own route's truth in its round's
	// epoch.
	routeIdx := map[string]int{}
	for i, p := range inst.Paths {
		routeIdx[p.Name] = i
	}
	cell := FleetCell{Scenario: s.Name, Info: s.Info}
	for _, sm := range samples {
		epoch := sm.Round * epochs / rounds
		truth, _ := s.RouteTruth(epoch, routeIdx[sm.Path])
		fr := FleetRound{Path: sm.Path, Round: sm.Round, Epoch: epoch, Truth: truth, At: sm.At}
		if sm.Err != nil {
			fr.Err = sm.Err.Error()
		} else {
			fr.Lo, fr.Hi, fr.Grey = sm.Result.Lo, sm.Result.Hi, sm.Result.GreySet
		}
		cell.Rounds = append(cell.Rounds, fr)
	}
	sort.Slice(cell.Rounds, func(i, j int) bool {
		a, b := cell.Rounds[i], cell.Rounds[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		return a.Round < b.Round
	})
	cell.Links = epochLinkMeans(links, epochs, rounds)

	if name == "steady-disjoint" {
		// The replay proof: every path re-run solo, on a fresh mesh
		// built from the same seed, must reproduce its fleet transcript
		// byte for byte.
		byPath := map[string][]pathload.Sample{}
		for _, sm := range samples {
			byPath[sm.Path] = append(byPath[sm.Path], sm)
		}
		for i, p := range inst.Paths {
			solo := runSoloPath(s, i, seed, monCfg)
			cell.SoloMatch = append(cell.SoloMatch, transcript(solo) == transcript(byPath[p.Name]))
		}
		cell.GapSlack, _ = drv.GapSlack()
	}
	return cell
}

// runSoloPath runs one path of the scenario alone: same full mesh
// (every link, identical seed, identical cross traffic everywhere), same
// monitor configuration, but only that path's route declared — a
// sequenced fleet of one, so the only difference from the fleet run is
// the absence of sibling probe streams.
func runSoloPath(s scenario.Scenario, pathIdx int, seed int64, monCfg pathload.MonitorConfig) []pathload.Sample {
	s.Spec.Routes = s.Spec.Routes[pathIdx : pathIdx+1]
	inst := s.MustBuild(seed)
	inst.Mesh.Warmup(warmup)
	mon, _, err := inst.Mesh.MonitorFleet(monCfg, reverseDelay)
	if err != nil {
		panic(fmt.Sprintf("experiments: fleetscenarios: solo %s: %v", inst.Path.Name, err))
	}
	return collectRun(mon)
}

// transcript renders one path's samples as the canonical byte-for-byte
// comparison form: round, path-local virtual clock, probing span, range
// and grey verdict — every deterministic field, no wall clock.
func transcript(samples []pathload.Sample) string {
	sorted := append([]pathload.Sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Round < sorted[j].Round })
	var b strings.Builder
	for _, sm := range sorted {
		if sm.Err != nil {
			fmt.Fprintf(&b, "[%d] @%v error: %v\n", sm.Round, sm.At, sm.Err)
			continue
		}
		fmt.Fprintf(&b, "[%d] @%v span=%v [%.4f,%.4f] grey=%t\n",
			sm.Round, sm.At, sm.Result.Elapsed, sm.Result.Lo/1e6, sm.Result.Hi/1e6, sm.Result.GreySet)
	}
	return b.String()
}

// epochLinkMeans folds the recorder's per-round windows, read back from
// the store they landed in, into one span-weighted mean utilization per
// link per epoch. Window n covers fleet round n−1 (it is closed at
// boundary n before any epoch advance), so it belongs to epoch(n−1);
// links come back sorted and a link's windows in round order, so each
// (link, epoch) run is contiguous.
func epochLinkMeans(links *tsstore.Store, epochs, rounds int) []FleetLinkEpoch {
	var out []FleetLinkEpoch
	var weights []float64
	for _, link := range links.Links() {
		for _, w := range links.LinkSnapshot(link) {
			epoch := (w.Round - 1) * epochs / rounds
			if n := len(out); n == 0 || out[n-1].Link != link || out[n-1].Epoch != epoch {
				out = append(out, FleetLinkEpoch{Link: link, Epoch: epoch, Capacity: w.Capacity})
				weights = append(weights, 0)
			}
			out[len(out)-1].Util += w.Util * w.Span.Seconds()
			weights[len(out)-1] += w.Span.Seconds()
		}
	}
	for i, w := range weights {
		if w > 0 {
			out[i].Util /= w
		}
	}
	return out
}

// RenderFleetScenarios formats the matrix: per scenario, every path's
// rounds against their per-epoch truths, the backbone's per-link
// per-epoch utilization, and the steady-disjoint solo-replay verdict.
// The output contains no wall-clock fields: identical Options render
// byte-identically.
func RenderFleetScenarios(r FleetScenariosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet scenarios: sequenced MonitorFleet over shared backbones, %d paths on one virtual clock\n", fleetPaths)
	fmt.Fprintf(&b, "stream params K=%d N=%d; %d rounds per path; gaps %v±%.0f%% virtual; slack = ω+χ = %.1f Mb/s\n",
		r.K, r.N, r.Rounds, fleetInterval, fleetJitter*100, scenarioSlack/1e6)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "\n%s — %s\n", c.Scenario, c.Info)
		fmt.Fprintf(&b, "%-9s %6s %6s %12s %-22s %7s %5s %4s\n",
			"path", "round", "epoch", "at", "range (Mb/s)", "truth", "grey", "hit")
		last := ""
		for _, fr := range c.Rounds {
			if fr.Path != last && last != "" {
				fmt.Fprintln(&b)
			}
			last = fr.Path
			if fr.Err != "" {
				fmt.Fprintf(&b, "%-9s %6d %6d %12v %-22s %7.2f %5s %4s\n",
					fr.Path, fr.Round, fr.Epoch, fr.At, "error: "+fr.Err, fr.Truth/1e6, "-", "-")
				continue
			}
			fmt.Fprintf(&b, "%-9s %6d %6d %12v [%8.2f, %8.2f ] %7.2f %5t %4t\n",
				fr.Path, fr.Round, fr.Epoch, fr.At, fr.Lo/1e6, fr.Hi/1e6, fr.Truth/1e6, fr.Grey, fr.Hit())
		}
		fmt.Fprintf(&b, "hits %d/%d\n", c.Hits(), len(c.Rounds))
		fmt.Fprintf(&b, "links (mean utilization per epoch):\n")
		for _, l := range c.Links {
			fmt.Fprintf(&b, "  %-8s epoch %d  cap %5.1f Mb/s  util %5.1f%%  avail %5.2f Mb/s\n",
				l.Link, l.Epoch, l.Capacity/1e6, l.Util*100, l.AvailBw()/1e6)
		}
		if c.SoloMatch != nil {
			ok := 0
			for _, m := range c.SoloMatch {
				if m {
					ok++
				}
			}
			fmt.Fprintf(&b, "solo replay: %d/%d paths byte-identical to their fleet transcripts; least gap-anchor slack %v\n", ok, len(c.SoloMatch), c.GapSlack)
		}
	}
	return b.String()
}
