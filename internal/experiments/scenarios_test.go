package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// scenarioOpt runs the grading matrix at half scale (4 rounds per cell)
// for the determinism and failure-mode tests; the golden uses the full
// default Options so it matches `cmd/repro -fig scenarios` literally.
var scenarioOpt = Options{Scale: 0.5, Seed: 3}

// TestScenariosGolden: the full grading matrix at default Options must
// render byte-identically to the committed golden — the same bytes
// `cmd/repro -fig scenarios` prints. Run with -update to regolden after
// an intentional change.
func TestScenariosGolden(t *testing.T) {
	got := RenderScenarios(Scenarios(Options{Scale: 1, Seed: 1}))
	checkGolden(t, "scenarios.golden", got)
}

// checkGolden compares got with testdata/<name>, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run once with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Fatalf("render deviates from golden %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestDeterminismScenarios: identical Options must render
// byte-identically regardless of host scheduling — every cell owns an
// isolated, seeded simulation. CI runs this with -race -count=2.
func TestDeterminismScenarios(t *testing.T) {
	a := RenderScenarios(Scenarios(scenarioOpt))
	b := RenderScenarios(Scenarios(scenarioOpt))
	if a != b {
		t.Fatalf("two identical runs rendered differently:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// scenarioCell runs one cell of the matrix at full stream parameters
// with a pinned seed; everything downstream is deterministic, so the
// failure-mode assertions below are exact, not statistical.
func scenarioCell(name string, load float64, estimator string, seed int64) ScenarioCell {
	cfg := contentionConfig(Options{}.withDefaults())
	return runScenarioCell(name, load, estimator, 8, seed, cfg)
}

// TestScenarioLossyFailureMode pins the lossy scenario's documented
// failure: random loss trips SLoPS's >10% abort rule, aborted fleets
// count as "rate too high", and the search collapses to its minimum
// rate — while the min-plus baseline, which has no abort rule, keeps
// bracketing the same truth from the same impaired path.
func TestScenarioLossyFailureMode(t *testing.T) {
	slops := scenarioCell("lossy", 0.40, "slops", 11)
	if slops.FloorRounds() == 0 {
		t.Errorf("SLoPS under loss: no rounds collapsed to the minimum rate (floor %d/%d)",
			slops.FloorRounds(), len(slops.Rounds))
	}
	if slops.Hits() == len(slops.Rounds) {
		t.Errorf("SLoPS under loss bracketed every round (%d/%d); the abort collapse should cost hits",
			slops.Hits(), len(slops.Rounds))
	}
	minplus := scenarioCell("lossy", 0.40, "minplus", 11)
	if minplus.Hits() <= slops.Hits() || minplus.Hits() < 3*len(minplus.Rounds)/4 {
		t.Errorf("min-plus under loss: %d/%d hits vs SLoPS %d/%d — with no abort rule it should keep bracketing",
			minplus.Hits(), len(minplus.Rounds), slops.Hits(), len(slops.Rounds))
	}
	if minplus.FloorRounds() != 0 {
		t.Errorf("min-plus under loss: %d floor rounds, want 0", minplus.FloorRounds())
	}
}

// TestScenarioReorderFailureMode pins the reorder scenario's documented
// failure: reordering delay spikes mimic queue growth. For SLoPS the
// spurious increasing-OWD verdicts push rounds grey; for min-plus they
// inflate the train's trailing third and trigger false backlog, so the
// sweep under-reports — rounds whose entire range sits below the truth
// even with slack.
func TestScenarioReorderFailureMode(t *testing.T) {
	slops := scenarioCell("reorder", 0.40, "slops", 13)
	if g := slops.GreyRounds(); g < len(slops.Rounds)/2 {
		t.Errorf("SLoPS under reordering: %d/%d grey rounds, want a grey-dominated cell",
			g, len(slops.Rounds))
	}
	minplus := scenarioCell("reorder", 0.40, "minplus", 13)
	under := 0
	for _, r := range minplus.Rounds {
		if r.Hi+scenarioSlack < r.Truth {
			under++
		}
	}
	if under == 0 {
		t.Errorf("min-plus under reordering never under-reported; rounds %+v", minplus.Rounds)
	}
}

// TestScenarioMigrateTracking pins the migration scenario's documented
// failure and recovery: estimates from the old epoch are stale against
// the new truth (the 6.0 → 1.24 Mb/s step exceeds the slack), and the
// estimator reacquires the new truth within the remaining rounds.
func TestScenarioMigrateTracking(t *testing.T) {
	cell := scenarioCell("migrate", 0.40, "slops", 17)
	var lastOld *ScenarioRound
	sawNew := false
	for i := range cell.Rounds {
		r := &cell.Rounds[i]
		if r.Epoch == 0 {
			lastOld = r
		} else {
			sawNew = true
		}
	}
	if lastOld == nil || !sawNew {
		t.Fatalf("rounds did not span both epochs: %+v", cell.Rounds)
	}
	if !lastOld.Hit() {
		t.Errorf("last pre-migration round missed its own truth: %+v", *lastOld)
	}
	newTruth := cell.Rounds[len(cell.Rounds)-1].Truth
	if stale := (ScenarioRound{Truth: newTruth, Lo: lastOld.Lo, Hi: lastOld.Hi}); stale.Hit() {
		t.Errorf("pre-migration range [%v, %v] still brackets the post-migration truth %v — the step should exceed the slack",
			lastOld.Lo, lastOld.Hi, newTruth)
	}
	if lag := cell.Lag(); lag < 0 {
		t.Errorf("estimator never reacquired the post-migration truth: %+v", cell.Rounds)
	}
}
