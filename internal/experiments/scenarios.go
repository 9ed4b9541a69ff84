package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/simprobe"

	pathload "repro"
)

// ScenarioLoads are the tight-link utilizations every scenario is
// graded under.
var ScenarioLoads = []float64{0.40, 0.70}

// ScenarioEstimators names the graded estimators: SLoPS (pathload's
// iterative search) and the min-plus direct-probing baseline
// (Liebeherr et al.) — two independently derived methods over the same
// probers, so per-scenario divergence is attributable to the method,
// not the plumbing.
var ScenarioEstimators = []string{"slops", "minplus"}

// scenarioSlack is the bracketing tolerance: pathload's termination
// resolutions ω + χ, applied to both estimators so hit rates compare
// like for like.
var scenarioSlack = pathload.Config{}.Slack()

// scenarioSettle is the simulated settling time after an epoch change
// (long enough to cover the flash scenario's 2 s ramp) and between
// rounds.
const (
	scenarioSettle   = 3 * netsim.Second
	scenarioRoundGap = 500 * netsim.Millisecond
)

// A ScenarioRound is one measurement round of one cell, graded against
// the analytic truth of the epoch it ran in.
type ScenarioRound struct {
	Epoch  int
	Truth  float64 // the epoch's analytic avail-bw
	Lo, Hi float64 // the estimator's reported range
	Grey   bool    // SLoPS reported a grey region
	Floor  bool    // the search collapsed to its minimum rate
}

// Hit reports whether the round's range brackets its epoch's truth
// within the shared slack.
func (r ScenarioRound) Hit() bool {
	return pathload.Brackets(r.Lo, r.Hi, r.Truth, scenarioSlack)
}

// A ScenarioCell is one (scenario, load, estimator) cell of the
// grading matrix.
type ScenarioCell struct {
	Scenario    string
	FailureMode string // documented expected failure ("" = expected to track)
	Load        float64
	Estimator   string
	Rounds      []ScenarioRound
}

// Hits counts bracketing rounds.
func (c ScenarioCell) Hits() int {
	n := 0
	for _, r := range c.Rounds {
		if r.Hit() {
			n++
		}
	}
	return n
}

// MeanWidth is the mean reported range width in bits/s.
func (c ScenarioCell) MeanWidth() float64 {
	var sum float64
	for _, r := range c.Rounds {
		sum += r.Hi - r.Lo
	}
	return sum / float64(len(c.Rounds))
}

// GreyRounds and FloorRounds count rounds with a grey region and
// rounds collapsed to the search floor.
func (c ScenarioCell) GreyRounds() int { return c.count(func(r ScenarioRound) bool { return r.Grey }) }
func (c ScenarioCell) FloorRounds() int {
	return c.count(func(r ScenarioRound) bool { return r.Floor })
}

func (c ScenarioCell) count(f func(ScenarioRound) bool) int {
	n := 0
	for _, r := range c.Rounds {
		if f(r) {
			n++
		}
	}
	return n
}

// Lag is the tracking lag: across epoch transitions, the largest
// number of rounds the estimator needed in the new epoch before first
// bracketing the new truth (0 = immediate). It returns -1 when some
// epoch's truth was never reacquired, and 0 for single-epoch cells.
func (c ScenarioCell) Lag() int {
	lag, worst := -1, 0
	epoch := 0
	inLagged := false
	for _, r := range c.Rounds {
		if r.Epoch != epoch {
			if inLagged {
				return -1 // previous epoch never reacquired
			}
			epoch = r.Epoch
			lag, inLagged = 0, true
		}
		if inLagged {
			if r.Hit() {
				if lag > worst {
					worst = lag
				}
				inLagged = false
			} else {
				lag++
			}
		}
	}
	if inLagged {
		return -1
	}
	return worst
}

// A ScenariosResult is the whole grading matrix.
type ScenariosResult struct {
	Cells []ScenarioCell
	// K and N are SLoPS's per-measurement stream parameters; Rounds the
	// rounds per cell.
	K, N, Rounds int
}

// Scenarios grades SLoPS and the min-plus baseline over the adversarial
// scenario matrix: every registry scenario × ScenarioLoads ×
// ScenarioEstimators, Rounds measurement rounds per cell, with
// multi-epoch scenarios advancing at round boundaries (rounds split
// evenly across epochs). Cells run on forRuns' pool, each on its own
// isolated, seeded simulation, so identical Options give byte-identical
// results at any GOMAXPROCS.
func Scenarios(opt Options) ScenariosResult {
	opt = opt.withDefaults()
	cfg := contentionConfig(opt)
	rounds := opt.runs(8)
	if rounds < 4 {
		rounds = 4
	}

	type cellSpec struct {
		name      string
		load      float64
		estimator string
	}
	var specs []cellSpec
	for _, name := range scenario.Names() {
		for _, load := range ScenarioLoads {
			for _, est := range ScenarioEstimators {
				specs = append(specs, cellSpec{name, load, est})
			}
		}
	}

	cells := make([]ScenarioCell, len(specs))
	forRuns(len(specs), func(i int) {
		cells[i] = runScenarioCell(specs[i].name, specs[i].load, specs[i].estimator, rounds, opt.runSeed(i), cfg)
	})
	return ScenariosResult{Cells: cells, K: cfg.PacketsPerStream, N: cfg.StreamsPerFleet, Rounds: rounds}
}

// runScenarioCell measures one cell: build the scenario fresh, warm it
// up, then run rounds back-to-back, advancing the epoch at its round
// boundary (the single driving goroutine owns the simulator, so
// Advance between Run calls is safe).
func runScenarioCell(name string, load float64, estimator string, rounds int, seed int64, cfg pathload.Config) ScenarioCell {
	s, err := scenario.Get(name, scenario.Params{Load: load})
	if err != nil {
		panic(fmt.Sprintf("experiments: scenarios: %v", err))
	}
	inst := s.MustBuild(seed)
	inst.Mesh.Warmup(warmup)
	p := simprobe.New(inst.Sim(), inst.Path.Route, reverseDelay)

	// The min-plus sweep needs an explicit ceiling: the route's narrow
	// (minimum-capacity) link.
	narrow := s.Spec.Links[0].Capacity
	for _, l := range s.Spec.Links {
		if l.Capacity < narrow {
			narrow = l.Capacity
		}
	}

	cell := ScenarioCell{Scenario: name, FailureMode: s.FailureMode, Load: load, Estimator: estimator}
	for r := 0; r < rounds; r++ {
		inst.AdvanceToRound(r, rounds, scenarioSettle)
		round := ScenarioRound{Epoch: inst.Epoch(), Truth: inst.Truth()}
		switch estimator {
		case "slops":
			res, err := pathload.Run(p, cfg)
			if err != nil {
				panic(fmt.Sprintf("experiments: scenarios: %s load %.2f %s round %d: %v", name, load, estimator, r, err))
			}
			round.Lo, round.Hi = res.Lo, res.Hi
			round.Grey, round.Floor = res.GreySet, res.HitMin
		case "minplus":
			res, err := baseline.MinPlus(p, narrow)
			if err != nil {
				panic(fmt.Sprintf("experiments: scenarios: %s load %.2f %s round %d: %v", name, load, estimator, r, err))
			}
			round.Lo, round.Hi = res.Lo, res.Hi
			round.Floor = res.Backlogged && res.Probed == 1
		default:
			panic(fmt.Sprintf("experiments: scenarios: unknown estimator %q", estimator))
		}
		cell.Rounds = append(cell.Rounds, round)
		inst.Sim().RunFor(scenarioRoundGap)
	}
	return cell
}

// RenderScenarios formats the grading matrix: one row per cell with
// bracketing hit rate, tracking lag, mean range width, grey and floor
// round counts, and the final round's range against its truth. The
// output contains no wall-clock fields: identical Options render
// byte-identically.
func RenderScenarios(r ScenariosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenarios: SLoPS vs min-plus direct probing across adversarial conditions\n")
	fmt.Fprintf(&b, "stream params K=%d N=%d; %d rounds per cell; slack = ω+χ = %.1f Mb/s; widths in Mb/s\n",
		r.K, r.N, r.Rounds, scenarioSlack/1e6)
	fmt.Fprintf(&b, "\n%-9s %5s %-8s %6s %5s %7s %5s %6s  %-24s %7s\n",
		"scenario", "load", "method", "hits", "lag", "width", "grey", "floor", "final [lo,hi]", "truth")
	last := ""
	for _, c := range r.Cells {
		if c.Scenario != last {
			if last != "" {
				fmt.Fprintln(&b)
			}
			last = c.Scenario
		}
		lag := fmt.Sprintf("%d", c.Lag())
		if c.Lag() < 0 {
			lag = "never"
		}
		fin := c.Rounds[len(c.Rounds)-1]
		fmt.Fprintf(&b, "%-9s %5.2f %-8s %3d/%-2d %5s %7.2f %5d %6d  [%8.2f, %8.2f ] %7.2f\n",
			c.Scenario, c.Load, c.Estimator, c.Hits(), len(c.Rounds), lag,
			c.MeanWidth()/1e6, c.GreyRounds(), c.FloorRounds(),
			fin.Lo/1e6, fin.Hi/1e6, fin.Truth/1e6)
	}

	fmt.Fprintf(&b, "\ndocumented failure modes:\n")
	seen := map[string]bool{}
	for _, c := range r.Cells {
		if c.FailureMode == "" || seen[c.Scenario] {
			continue
		}
		seen[c.Scenario] = true
		fmt.Fprintf(&b, "  %-9s %s\n", c.Scenario, c.FailureMode)
	}
	return b.String()
}
