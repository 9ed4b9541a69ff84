package scenario

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/netsim"
)

// measureUtil runs the instance's simulator for d and returns the
// link's mean utilization over that window.
func measureUtil(inst *Instance, link string, d netsim.Time) float64 {
	l := inst.Mesh.Link(link)
	before := l.Counters()
	start := inst.Sim().Now()
	inst.Sim().RunFor(d)
	return netsim.Utilization(before, l.Counters(), inst.Sim().Now()-start)
}

// TestRegistryBuilds: every advertised scenario builds and its epoch-0
// truth is positive and below the tight capacity.
func TestRegistryBuilds(t *testing.T) {
	for _, name := range Names() {
		s, err := Get(name, Params{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name || s.Info == "" {
			t.Errorf("%s: bad registry entry %+v", name, s)
		}
		inst := s.MustBuild(7)
		if got := inst.Epochs(); got != len(s.Epochs) || got == 0 {
			t.Fatalf("%s: %d epochs", name, got)
		}
		a, hop := s.TruthForEpoch(0)
		if a <= 0 || a >= tightCap || hop < 0 || hop >= len(s.Spec.Routes[0].Links) {
			t.Errorf("%s: epoch-0 truth A=%v hop=%d out of range", name, a, hop)
		}
		if inst.Truth() != a || inst.TightHop() != hop {
			t.Errorf("%s: instance truth (%v, %d) ≠ scenario truth (%v, %d)",
				name, inst.Truth(), inst.TightHop(), a, hop)
		}
	}
	if _, err := Get("bogus", Params{}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := Get("steady", Params{Load: 0.99}); err == nil {
		t.Error("out-of-range load accepted")
	}
}

// TestMigrateTruth pins the migration scenario's per-epoch ground
// truth: the tight link moves from hop 1 to hop 0 and the truth steps
// down to the saturated hop's avail-bw.
func TestMigrateTruth(t *testing.T) {
	s, err := Get("migrate", Params{Load: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	a0, h0 := s.TruthForEpoch(0)
	if h0 != 1 || a0 != tightCap*(1-0.4) {
		t.Fatalf("epoch 0: A=%v hop=%d, want 6e6 at hop 1", a0, h0)
	}
	a1, h1 := s.TruthForEpoch(1)
	if h1 != 0 || math.Abs(a1-migrateCap*(1-migrateUtil)) > 1 {
		t.Fatalf("epoch 1: A=%v hop=%d, want 1.24e6 at hop 0", a1, h1)
	}
}

// TestAdvanceRealizesUtilization: Advance must change the live traffic,
// not just the reported truth — the migrating hop's measured
// utilization steps from 0.25 to 0.90.
func TestAdvanceRealizesUtilization(t *testing.T) {
	inst := mustGet(t, "migrate", Params{Load: 0.4}).MustBuild(11)
	inst.Mesh.Warmup(2 * netsim.Second)
	if u := measureUtil(inst, "wide", 20*netsim.Second); math.Abs(u-migrateIdle) > 0.06 {
		t.Fatalf("epoch 0 wide utilization %.3f, want ≈%.2f", u, migrateIdle)
	}
	if !inst.Advance() {
		t.Fatal("Advance refused with an epoch remaining")
	}
	if inst.Epoch() != 1 {
		t.Fatalf("epoch %d after Advance, want 1", inst.Epoch())
	}
	inst.Sim().RunFor(2 * netsim.Second) // let the new regime settle
	if u := measureUtil(inst, "wide", 20*netsim.Second); math.Abs(u-migrateUtil) > 0.06 {
		t.Fatalf("epoch 1 wide utilization %.3f, want ≈%.2f", u, migrateUtil)
	}
	if inst.Advance() {
		t.Fatal("Advance past the final epoch")
	}
}

// TestAdvanceToRound: rounds split evenly across epochs — on the
// two-epoch migrate scenario with four rounds, rounds 0–1 run in epoch 0
// and rounds 2–3 in epoch 1; the one advance spends exactly the settle
// time, repeated calls are idempotent, and a round index at or past
// `rounds` stops at the final epoch instead of spinning.
func TestAdvanceToRound(t *testing.T) {
	inst := mustGet(t, "migrate", Params{Load: 0.4}).MustBuild(11)
	const rounds, settle = 4, 3 * netsim.Second
	for r, want := range []struct{ advanced, epoch int }{{0, 0}, {0, 0}, {1, 1}, {0, 1}} {
		before := inst.Sim().Now()
		if n := inst.AdvanceToRound(r, rounds, settle); n != want.advanced || inst.Epoch() != want.epoch {
			t.Errorf("round %d: advanced %d to epoch %d, want %d to %d", r, n, inst.Epoch(), want.advanced, want.epoch)
		}
		if got := inst.Sim().Now() - before; got != netsim.Time(want.advanced)*settle {
			t.Errorf("round %d: simulator ran %v, want %v", r, got, netsim.Time(want.advanced)*settle)
		}
	}
	if n := inst.AdvanceToRound(rounds, rounds, settle); n != 0 || inst.Epoch() != 1 {
		t.Errorf("round == rounds: advanced %d to epoch %d, want to stay at the final epoch", n, inst.Epoch())
	}
}

// TestFlashRealizesLoad: the flash epoch adds its peak rate to the
// tight link's measured utilization and the truth drops accordingly.
func TestFlashRealizesLoad(t *testing.T) {
	load := 0.4
	inst := mustGet(t, "flash", Params{Load: load}).MustBuild(3)
	inst.Mesh.Warmup(2 * netsim.Second)
	if u := measureUtil(inst, "tight", 20*netsim.Second); math.Abs(u-load) > 0.06 {
		t.Fatalf("epoch 0 tight utilization %.3f, want ≈%.2f", u, load)
	}
	preTruth := inst.Truth()
	inst.Advance()
	inst.Sim().RunFor(4 * netsim.Second) // ramp (2s) + settle
	want := load + flashFraction
	if u := measureUtil(inst, "tight", 20*netsim.Second); math.Abs(u-want) > 0.06 {
		t.Fatalf("flash epoch tight utilization %.3f, want ≈%.2f", u, want)
	}
	if got := inst.Truth(); math.Abs((preTruth-got)-flashFraction*tightCap) > 1 {
		t.Fatalf("flash truth step %v, want %v", preTruth-got, flashFraction*tightCap)
	}
}

// TestImpairedScenariosWired: the lossy and reorder scenarios install
// their impairments on the tight link of the built mesh.
func TestImpairedScenariosWired(t *testing.T) {
	lossy := mustGet(t, "lossy", Params{}).MustBuild(5)
	lossy.Mesh.Warmup(10 * netsim.Second)
	if got := lossy.Mesh.Link("tight").Counters().RandLoss; got == 0 {
		t.Error("lossy scenario: no random losses on the tight link")
	}
	reorder := mustGet(t, "reorder", Params{}).MustBuild(5)
	reorder.Mesh.Warmup(10 * netsim.Second)
	if got := reorder.Mesh.Link("tight").Counters().Reordered; got == 0 {
		t.Error("reorder scenario: no reordered packets on the tight link")
	}
}

// TestTwinGreyGap: the twin scenario's two bottlenecks differ by far
// less than pathload's grey resolution, and the earliest-tie rule holds
// when the skew is removed.
func TestTwinGreyGap(t *testing.T) {
	s := mustGet(t, "twin", Params{Load: 0.5})
	aA := tightCap * (1 - 0.5)
	aB := tightCap * (1 - 0.5 - twinSkew)
	a, hop := s.TruthForEpoch(0)
	if a != aB || hop != 2 {
		t.Fatalf("twin truth A=%v hop=%d, want %v at hop 2", a, hop, aB)
	}
	if gap := aA - aB; gap <= 0 || gap > 1.5e6 {
		t.Fatalf("twin gap %v outside the grey resolution", gap)
	}
	// Exact co-tight twins: earliest of the two wins.
	s.Spec.Links[2].Util = 0.5
	if _, hop := s.TruthForEpoch(0); hop != 1 {
		t.Fatalf("co-tight twins resolved to hop %d, want earliest (1)", hop)
	}
}

// TestScenarioValidation: structural errors in scenario declarations
// surface from Build.
func TestScenarioValidation(t *testing.T) {
	base := func() Scenario {
		s, _ := Get("steady", Params{})
		return s
	}
	for name, tc := range map[string]struct {
		mut  func(*Scenario)
		want string
	}{
		"no epochs":      {func(s *Scenario) { s.Epochs = nil }, "no epochs"},
		"unknown link":   {func(s *Scenario) { s.Epochs[0].Util = map[string]float64{"zzz": 0.5} }, "unknown link"},
		"bad util":       {func(s *Scenario) { s.Epochs[0].Util = map[string]float64{"tight": 1.0} }, "outside"},
		"flash unknown":  {func(s *Scenario) { s.Epochs[0].Flash = &Flash{Link: "zzz", Peak: 1e6, RampUp: 1} }, "unknown"},
		"flash peak":     {func(s *Scenario) { s.Epochs[0].Flash = &Flash{Link: "tight", Peak: 2 * tightCap, RampUp: 1} }, "peak"},
		"flash ramp":     {func(s *Scenario) { s.Epochs[0].Flash = &Flash{Link: "tight", Peak: 1e6} }, "ramp-up"},
		"no routes":      {func(s *Scenario) { s.Spec.Routes = nil }, "route"},
		"bad mesh":       {func(s *Scenario) { s.Spec.Links[0].Capacity = 0 }, "capacity"},
		"multi override": {func(s *Scenario) { s.Epochs = append(s.Epochs, Epoch{Util: map[string]float64{"tight": -0.1}}) }, "outside"},
	} {
		s := base()
		tc.mut(&s)
		_, err := s.Build(1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.want)
		}
	}
	// Multi-route scenarios are legal since the fleet lift: a second
	// route builds, shows up in Paths, and carries its own truth.
	s := base()
	s.Spec.Routes = append(s.Spec.Routes, mesh.RouteSpec{Name: "q", Links: []string{"wide"}})
	inst, err := s.Build(1)
	if err != nil {
		t.Fatalf("two-route scenario: %v", err)
	}
	if len(inst.Paths) != 2 || inst.Path != inst.Paths[0] {
		t.Fatalf("two-route instance paths = %d, Path == Paths[0] is %v", len(inst.Paths), inst.Path == inst.Paths[0])
	}
	if a, _ := inst.RouteTruth(1); a != wideCap*(1-wideUtil) {
		t.Errorf("route 1 truth = %v, want %v", a, wideCap*(1-wideUtil))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustBuild on an invalid scenario did not panic")
			}
		}()
		s := base()
		s.Epochs = nil
		s.MustBuild(1)
	}()
}

// TestParse covers the accepted grammar and a malformed-input table.
func TestParse(t *testing.T) {
	s, err := Parse("lossy:load=0.7,loss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "lossy" || s.Spec.Links[1].Util != 0.7 || s.Spec.Links[1].Loss != 0.1 {
		t.Fatalf("parsed scenario %+v", s)
	}
	s, err = Parse("reorder:delay=10ms,reorder=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec.Links[1].Reorder != 0.2 || s.Spec.Links[1].ReorderDelay != 10*netsim.Millisecond {
		t.Fatalf("parsed reorder scenario %+v", s.Spec.Links[1])
	}
	if s, err := Parse("steady"); err != nil || s.Name != "steady" {
		t.Fatalf("bare name: %v, %v", s.Name, err)
	}
	// The flash crowd adds 0.30·C to the tight link: load 0.70 leaves it
	// exactly saturated and still builds, anything above overloads it.
	if s, err := Parse("flash:load=0.7"); err != nil {
		t.Fatalf("saturating flash: %v", err)
	} else if _, err := s.Build(1); err != nil {
		t.Fatalf("saturating flash does not build: %v", err)
	}
	for _, bad := range []string{
		"", ":", "steady:", "steady:load", "steady:load=", "steady:=0.5",
		"steady:load=x", "steady:load=2", "steady:load=-1", "steady:load=NaN",
		"steady:loss=1", "steady:reorder=1.5", "steady:delay=0s", "steady:delay=-5ms",
		"steady:delay=zzz", "steady:frobnicate=1", "nope", "nope:load=0.5",
		"steady:load=0.5,,", "steady:load=0.5,load", "flash:load=0.8", "flash:load=0.94",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func mustGet(t *testing.T, name string, p Params) Scenario {
	t.Helper()
	s, err := Get(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
