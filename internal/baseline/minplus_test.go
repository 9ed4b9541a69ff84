package baseline

import (
	"testing"

	"repro/internal/fluid"

	pathload "repro"
)

// lossyFluidProber decimates the fluid prober's streams: every drop-th
// packet never arrives. OWD trends survive, so a loss-tolerant detector
// must still bracket correctly.
type lossyFluidProber struct {
	fluidProber
	drop int
}

func (l *lossyFluidProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	res, err := l.fluidProber.SendStream(spec)
	if err != nil || l.drop == 0 {
		return res, err
	}
	kept := res.OWDs[:0]
	for i, s := range res.OWDs {
		if (i+1)%l.drop != 0 {
			kept = append(kept, s)
		}
	}
	res.OWDs = kept
	return res, nil
}

// TestMinPlusBracketsFluid: on a fluid path the sweep brackets the
// avail-bw to one grid step — rates at or below A are clean (no queue
// growth), the first rate above it backlogs.
func TestMinPlusBracketsFluid(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}
	res, err := MinPlus(p, MinPlusConfig{MaxRate: 10e6, Grid: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lo != 4e6 || res.Hi != 5e6 {
		t.Fatalf("bracket [%.1f, %.1f] Mb/s, want [4.0, 5.0]", res.Lo/1e6, res.Hi/1e6)
	}
	if !res.Backlogged || res.Probed != 5 {
		t.Fatalf("backlogged=%v probed=%d, want true, 5 (stop at first backlog)", res.Backlogged, res.Probed)
	}
}

// TestMinPlusLossTolerant is the contrast with SLoPS: a stream loss
// rate far past pathload's 10% abort threshold must not stop the sweep
// — the surviving packets still carry the trend.
func TestMinPlusLossTolerant(t *testing.T) {
	p := &lossyFluidProber{fluidProber: fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}, drop: 3}
	res, err := MinPlus(p, MinPlusConfig{MaxRate: 10e6, Grid: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lo != 4e6 || res.Hi != 5e6 {
		t.Fatalf("bracket [%.1f, %.1f] Mb/s under 33%% loss, want [4.0, 5.0]", res.Lo/1e6, res.Hi/1e6)
	}
	if res.Lost == 0 {
		t.Fatal("Lost counter never advanced")
	}
}

// TestMinPlusSweepEdges: an idle path runs off the top of the grid
// (Hi = MaxRate, Backlogged false); a saturated one backlogs on the
// first probe (Lo = MinRate).
func TestMinPlusSweepEdges(t *testing.T) {
	idle := &fluidProber{path: fluid.Path{{C: 100e6, A: 99e6}}}
	res, err := MinPlus(idle, MinPlusConfig{MaxRate: 10e6, Grid: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backlogged || res.Lo != 10e6 || res.Hi != 10e6 || res.Probed != 5 {
		t.Fatalf("idle path: %+v, want clean full sweep to 10 Mb/s", res)
	}

	sat := &fluidProber{path: fluid.Path{{C: 10e6, A: 0.2e6}}}
	res, err = MinPlus(sat, MinPlusConfig{MaxRate: 10e6, Grid: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Backlogged || res.Lo != 0 || res.Hi != 2e6 || res.Probed != 1 {
		t.Fatalf("saturated path: %+v, want first-probe backlog with Lo = 0", res)
	}
}

// TestMinPlusDecimatedTrainIsBacklogged: a train too short to split
// into thirds is conservatively declared backlogged.
func TestMinPlusDecimatedTrainIsBacklogged(t *testing.T) {
	sr := pathload.StreamResult{Sent: 60}
	for i := 0; i < 8; i++ {
		sr.OWDs = append(sr.OWDs, pathload.OWDSample{Seq: i})
	}
	if !backlogged(sr) {
		t.Fatal("8-packet remnant not declared backlogged")
	}
	sr.OWDs = append(sr.OWDs, pathload.OWDSample{Seq: 8})
	if backlogged(sr) {
		t.Fatal("9 flat OWDs declared backlogged")
	}
}

// TestMinPlusErrors: invalid rate ranges and transport failures surface
// as errors.
func TestMinPlusErrors(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}
	if _, err := MinPlus(p, MinPlusConfig{}); err == nil {
		t.Error("missing MaxRate accepted")
	}
	if _, err := MinPlus(p, MinPlusConfig{MinRate: 5e6, MaxRate: 4e6}); err == nil {
		t.Error("inverted rate range accepted")
	}
	if _, err := MinPlus(&fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}, fail: true},
		MinPlusConfig{MaxRate: 10e6}); err == nil {
		t.Error("transport failure swallowed")
	}
}
