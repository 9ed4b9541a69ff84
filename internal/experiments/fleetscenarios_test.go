package experiments

import (
	"testing"

	"repro/internal/scenario"
)

// fleetOpt runs the fleet matrix at half scale (2 rounds per path) for
// the determinism test; the golden uses the full default Options so it
// matches `cmd/repro -fig fleetscenarios` literally.
var fleetOpt = Options{Scale: 0.5, Seed: 3}

// TestFleetScenariosGolden: the full fleet matrix at default Options
// must render byte-identically to the committed golden — the same bytes
// `cmd/repro -fig fleetscenarios` prints. The golden pins the ISSUE's
// replay acceptance: a sequenced MonitorFleet over a shared backbone
// with a migrating tight link reproduces its whole transcript, and the
// steady-disjoint control reports every path byte-identical to a solo
// run. Run with -update to regolden after an intentional change.
func TestFleetScenariosGolden(t *testing.T) {
	res := FleetScenarios(Options{Scale: 1, Seed: 1})
	checkGolden(t, "fleetscenarios.golden", RenderFleetScenarios(res))
	assertSoloReplay(t, res)
}

// TestDeterminismFleetScenarios: identical Options must render
// byte-identically regardless of host scheduling — the whole monitored
// fleet (sessions, barrier, epoch advances, link snapshots) runs on one
// virtual clock under the sequenced driver. CI runs this with -race
// -count=2. The solo-replay check reads the first run: the second
// renders identically or the test has already failed.
func TestDeterminismFleetScenarios(t *testing.T) {
	res := FleetScenarios(fleetOpt)
	a := RenderFleetScenarios(res)
	b := RenderFleetScenarios(FleetScenarios(fleetOpt))
	if a != b {
		t.Fatalf("two identical fleet runs rendered differently:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	assertSoloReplay(t, res)
}

// assertSoloReplay checks the steady-disjoint control: its precondition
// first (every round started at its own gap anchor, not at a late
// barrier), then every path's fleet transcript byte-identical to its
// solo re-run, the PR 3 disjoint-control argument lifted to whole
// monitor sessions.
func assertSoloReplay(t *testing.T, res FleetScenariosResult) {
	t.Helper()
	found := false
	for _, c := range res.Cells {
		if c.Scenario != "steady-disjoint" {
			continue
		}
		found = true
		if res.Rounds > 1 && c.GapSlack <= 0 {
			t.Errorf("steady-disjoint: gap anchor in the past by %v: the %v interval no longer outlasts the round-end skew, so the transcripts below may fork without a replay bug", -c.GapSlack, fleetInterval)
		}
		if len(c.SoloMatch) != fleetPaths {
			t.Fatalf("steady-disjoint: %d solo verdicts, want %d", len(c.SoloMatch), fleetPaths)
		}
		for i, ok := range c.SoloMatch {
			if !ok {
				t.Errorf("steady-disjoint path %d: fleet transcript differs from its solo run", i)
			}
		}
	}
	if !found {
		t.Fatal("no steady-disjoint cell in the fleet matrix")
	}
}

// TestFleetScenariosGrading pins structural properties of the matrix
// that the golden alone would not explain: every registry scenario
// produces a cell with fleetPaths×rounds graded rounds, epochs split
// rounds evenly, and the shared-backbone cells track their migrating
// truths well enough to matter (over half the rounds bracket).
func TestFleetScenariosGrading(t *testing.T) {
	res := FleetScenarios(fleetOpt)
	if len(res.Cells) == 0 {
		t.Fatal("no cells")
	}
	for _, c := range res.Cells {
		if got := len(c.Rounds); got != fleetPaths*res.Rounds {
			t.Errorf("%s: %d rounds, want %d", c.Scenario, got, fleetPaths*res.Rounds)
		}
		s, err := scenario.GetFleet(c.Scenario, fleetPaths)
		if err != nil {
			t.Fatalf("%s: %v", c.Scenario, err)
		}
		for _, fr := range c.Rounds {
			if fr.Epoch != fr.Round*len(s.Epochs)/res.Rounds {
				t.Errorf("%s %s round %d: epoch %d breaks the even split", c.Scenario, fr.Path, fr.Round, fr.Epoch)
			}
			if fr.Truth <= 0 {
				t.Errorf("%s %s round %d: non-positive truth %v", c.Scenario, fr.Path, fr.Round, fr.Truth)
			}
		}
		if len(c.Links) == 0 {
			t.Errorf("%s: no link windows recorded", c.Scenario)
		}
		if c.Hits() <= len(c.Rounds)/2 {
			t.Errorf("%s: only %d/%d rounds bracket their truth", c.Scenario, c.Hits(), len(c.Rounds))
		}
	}
}
