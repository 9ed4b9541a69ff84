package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestContentionDeterministic is the mesh-fleet determinism bar (the
// shared-link analogue of the 64-path monitorscale test): a fixed
// contention sweep must render byte-identically across two runs — the
// co pass is goroutine-driven, so this pins the sequencer's
// deterministic interleaving end to end, through full pathload
// measurements.
func TestContentionDeterministic(t *testing.T) {
	a := RenderContention(Contention(smallOpt))
	b := RenderContention(Contention(smallOpt))
	if a != b {
		t.Fatalf("contention renders differ between runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	checkGolden(t, "contention.golden", a)
}

// TestContentionSelfInterference checks the experiment's physics: the
// sweep covers every shape at every fleet size, co-probing shifts
// overlapping paths' estimates (downward on average — co-running SLoPS
// streams raise each other's OWD trends), and the disjoint control
// fleet replays its solo runs exactly.
func TestContentionSelfInterference(t *testing.T) {
	res := Contention(smallOpt)

	if want := len(contentionShapes()) * len(ContentionFleetSizes); len(res.Cases) != want {
		t.Fatalf("%d cases, want %d", len(res.Cases), want)
	}
	for _, c := range res.Cases {
		if len(c.Paths) != c.Fleet {
			t.Errorf("%s fleet=%d: %d paths", c.Shape, c.Fleet, len(c.Paths))
		}
		for _, p := range c.Paths {
			if p.True <= 0 {
				t.Errorf("%s fleet=%d %s: non-positive ground truth", c.Shape, c.Fleet, p.Path)
			}
			if (c.Shape == "disjoint") != (p.SharedLinks == 0) {
				t.Errorf("%s fleet=%d %s: shared-link count %d inconsistent with shape",
					c.Shape, c.Fleet, p.Path, p.SharedLinks)
			}
			if p.CoMRTG <= 0 || p.CoMRTG >= p.True {
				// The counter view includes fleet probe load, so it must
				// sit strictly below the no-probe analytic avail-bw.
				t.Errorf("%s fleet=%d %s: co-pass MRTG %.2f Mb/s outside (0, A=%.2f)",
					c.Shape, c.Fleet, p.Path, p.CoMRTG/1e6, p.True/1e6)
			}
		}
	}

	dis := res.DisjointPaths()
	if len(dis) == 0 {
		t.Fatal("no disjoint control paths")
	}
	for _, p := range dis {
		if p.Shift() != 0 {
			t.Errorf("disjoint %s: shift %.3f Mb/s, want exactly 0 (sequenced co pass must replay solo)",
				p.Path, p.Shift()/1e6)
		}
	}

	over := res.OverlappingPaths()
	if len(over) == 0 {
		t.Fatal("no overlapping paths")
	}
	var mean float64
	moved := 0
	for _, p := range over {
		mean += p.Shift()
		if math.Abs(p.Shift()) > 0.25e6 {
			moved++
		}
	}
	mean /= float64(len(over))
	if mean >= 0 {
		t.Errorf("mean overlapping shift %+.2f Mb/s, want negative (fleet self-interference under-reports)", mean/1e6)
	}
	if 2*moved < len(over) {
		t.Errorf("only %d/%d overlapping paths shifted beyond 0.25 Mb/s", moved, len(over))
	}

	out := RenderContention(res)
	for _, want := range []string{"shape=star fleet=2", "shape=tree fleet=4", "shape=disjoint fleet=4", "summary:", "co-mrtg"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
