package mesh

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"

	pathload "repro"
)

// TestStarGroundTruth: every star path's tight link is the shared core
// and its avail-bw is the core's C·(1−u).
func TestStarGroundTruth(t *testing.T) {
	m := Star(3, 7).MustBuild()
	if got := len(m.Paths()); got != 3 {
		t.Fatalf("%d paths, want 3", got)
	}
	for _, p := range m.Paths() {
		if p.TightLink().Name() != "core" {
			t.Errorf("%s: tight link %q, want core", p.Name, p.TightLink().Name())
		}
		if p.TightIdx != 1 {
			t.Errorf("%s: tight hop %d, want 1", p.Name, p.TightIdx)
		}
		if want := coreCap * (1 - coreUtil); p.AvailBw() != want {
			t.Errorf("%s: A = %v, want %v", p.Name, p.AvailBw(), want)
		}
	}
}

// TestChainGroundTruth: parking-lot paths alternate tight hops.
func TestChainGroundTruth(t *testing.T) {
	m := Chain(3, 7).MustBuild()
	want := []struct {
		tight string
		idx   int
	}{
		{"hop-00", 0}, // hops 0,1: even hop is loaded
		{"hop-02", 1}, // hops 1,2
		{"hop-02", 0}, // hops 2,3
	}
	for i, p := range m.Paths() {
		if p.TightLink().Name() != want[i].tight || p.TightIdx != want[i].idx {
			t.Errorf("%s: tight %q@%d, want %q@%d",
				p.Name, p.TightLink().Name(), p.TightIdx, want[i].tight, want[i].idx)
		}
		if wantA := coreCap * (1 - coreUtil); p.AvailBw() != wantA {
			t.Errorf("%s: A = %v, want %v", p.Name, p.AvailBw(), wantA)
		}
	}
}

// TestTreeGroundTruth: the root is tight for every path.
func TestTreeGroundTruth(t *testing.T) {
	m := Tree(3, 7).MustBuild()
	for _, p := range m.Paths() {
		if p.TightLink().Name() != "root" || p.TightIdx != 2 {
			t.Errorf("%s: tight %q@%d, want root@2", p.Name, p.TightLink().Name(), p.TightIdx)
		}
		if want := rootCap * (1 - rootUtil); p.AvailBw() != want {
			t.Errorf("%s: A = %v, want %v", p.Name, p.AvailBw(), want)
		}
	}
}

// TestDisjointGroundTruth: the control shape has no shared links.
func TestDisjointGroundTruth(t *testing.T) {
	m := Disjoint(2, 7).MustBuild()
	for _, p := range m.Paths() {
		if want := soloCap * (1 - soloUtil); p.AvailBw() != want {
			t.Errorf("%s: A = %v, want %v", p.Name, p.AvailBw(), want)
		}
		if p.TightIdx != 0 {
			t.Errorf("%s: tight hop %d, want 0", p.Name, p.TightIdx)
		}
	}
}

// TestTightLinkTie: when two hops have exactly equal avail-bw the
// earliest hop wins, in either traversal order.
func TestTightLinkTie(t *testing.T) {
	// Both links have A = 5 Mb/s: 10 Mb/s at 50% and 5 Mb/s unloaded.
	links := []LinkSpec{
		{Name: "loaded", Capacity: 10e6, Util: 0.5},
		{Name: "slim", Capacity: 5e6, Util: 0},
	}
	for _, route := range [][]string{{"loaded", "slim"}, {"slim", "loaded"}} {
		m, err := (Spec{
			Links:  links,
			Routes: []RouteSpec{{Name: "p", Links: route}},
		}).Build()
		if err != nil {
			t.Fatal(err)
		}
		p := m.Path("p")
		if p.TightIdx != 0 {
			t.Errorf("route %v: tie broke to hop %d, want earliest (0)", route, p.TightIdx)
		}
		if p.TightLink().Name() != route[0] {
			t.Errorf("route %v: tight link %q, want %q", route, p.TightLink().Name(), route[0])
		}
		if p.AvailBw() != 5e6 {
			t.Errorf("route %v: A = %v, want 5e6", route, p.AvailBw())
		}
	}
}

// TestTightLinkTieMidRoute extends the tie rule to longer routes: with
// three exactly co-tight hops (different capacity/utilization pairs, the
// same C·(1−u)) the earliest still wins, and a tie that begins mid-route
// resolves to the first tied hop, not hop 0.
func TestTightLinkTieMidRoute(t *testing.T) {
	// A = 5 Mb/s three ways: 10 Mb/s @ 0.5, 5 Mb/s @ 0, 20 Mb/s @ 0.75.
	links := []LinkSpec{
		{Name: "wide", Capacity: 50e6, Util: 0.1}, // A = 45 Mb/s, never tight
		{Name: "a", Capacity: 10e6, Util: 0.5},
		{Name: "b", Capacity: 5e6, Util: 0},
		{Name: "c", Capacity: 20e6, Util: 0.75},
	}
	for _, tc := range []struct {
		route   []string
		tight   string
		tightAt int
	}{
		{[]string{"a", "b", "c"}, "a", 0},
		{[]string{"c", "b", "a"}, "c", 0},
		{[]string{"wide", "b", "a"}, "b", 1}, // tie starts mid-route
		{[]string{"wide", "c", "b"}, "c", 1},
	} {
		m, err := (Spec{
			Links:  links,
			Routes: []RouteSpec{{Name: "p", Links: tc.route}},
		}).Build()
		if err != nil {
			t.Fatal(err)
		}
		p := m.Path("p")
		if p.TightIdx != tc.tightAt || p.TightLink().Name() != tc.tight {
			t.Errorf("route %v: tight %q@%d, want %q@%d",
				tc.route, p.TightLink().Name(), p.TightIdx, tc.tight, tc.tightAt)
		}
		if p.AvailBw() != 5e6 {
			t.Errorf("route %v: A = %v, want 5e6", tc.route, p.AvailBw())
		}
	}
}

// TestImpairedLinkWiring: Build installs the spec's loss/reordering on
// the right link — packets crossing it get erased at the configured
// rate, while clean links stay untouched.
func TestImpairedLinkWiring(t *testing.T) {
	m, err := (Spec{
		Links: []LinkSpec{
			{Name: "clean", Capacity: 10e6},
			{Name: "lossy", Capacity: 10e6, Loss: 0.2, Reorder: 0.1, ReorderDelay: netsim.Millisecond},
		},
		Routes: []RouteSpec{{Name: "p", Links: []string{"clean", "lossy"}}},
		Seed:   9,
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	route := m.Path("p").Route
	for i := 0; i < 2000; i++ {
		i := i
		m.Sim.Schedule(netsim.Time(i)*netsim.Millisecond, func() {
			pkt := m.Sim.NewPacket()
			pkt.Size = 500
			m.Sim.Inject(pkt, route, nil)
		})
	}
	m.Sim.RunFor(3 * netsim.Second)
	clean, lossy := m.Link("clean").Counters(), m.Link("lossy").Counters()
	if clean.RandLoss != 0 || clean.Reordered != 0 {
		t.Errorf("clean link impaired: %+v", clean)
	}
	if rate := float64(lossy.RandLoss) / 2000; rate < 0.15 || rate > 0.25 {
		t.Errorf("lossy link erased %.3f of packets, want ≈0.20", rate)
	}
	if lossy.Reordered == 0 {
		t.Error("lossy link reordered nothing")
	}
}

// TestSpecValidation exercises every structural error.
func TestSpecValidation(t *testing.T) {
	good := Spec{
		Links:  []LinkSpec{{Name: "a", Capacity: 1e6}},
		Routes: []RouteSpec{{Name: "p", Links: []string{"a"}}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no links", func(s *Spec) { s.Links = nil }, "no links"},
		{"no routes", func(s *Spec) { s.Routes = nil }, "no routes"},
		{"empty link name", func(s *Spec) { s.Links[0].Name = "" }, "empty name"},
		{"dup link", func(s *Spec) { s.Links = append(s.Links, s.Links[0]) }, "duplicate link"},
		{"bad capacity", func(s *Spec) { s.Links[0].Capacity = 0 }, "capacity"},
		{"bad util", func(s *Spec) { s.Links[0].Util = 1 }, "utilization"},
		{"negative prop", func(s *Spec) { s.Links[0].Prop = -1 }, "negative"},
		{"negative buffer", func(s *Spec) { s.Links[0].BufBytes = -1 }, "negative"},
		{"negative util", func(s *Spec) { s.Links[0].Util = -0.1 }, "utilization"},
		{"loss ≥ 1", func(s *Spec) { s.Links[0].Loss = 1 }, "loss"},
		{"negative loss", func(s *Spec) { s.Links[0].Loss = -0.1 }, "loss"},
		{"reorder ≥ 1", func(s *Spec) { s.Links[0].Reorder = 1; s.Links[0].ReorderDelay = 1 }, "reorder"},
		{"negative reorder", func(s *Spec) { s.Links[0].Reorder = -0.1 }, "reorder"},
		{"reorder no delay", func(s *Spec) { s.Links[0].Reorder = 0.1 }, "ReorderDelay"},
		{"negative delay", func(s *Spec) { s.Links[0].ReorderDelay = -1 }, "ReorderDelay"},
		{"empty route name", func(s *Spec) { s.Routes[0].Name = "" }, "empty name"},
		{"dup route", func(s *Spec) { s.Routes = append(s.Routes, s.Routes[0]) }, "duplicate route"},
		{"empty route", func(s *Spec) { s.Routes[0].Links = nil }, "is empty"},
		{"unknown link", func(s *Spec) { s.Routes[0].Links = []string{"zzz"} }, "unknown link"},
		{"loop", func(s *Spec) { s.Routes[0].Links = []string{"a", "a"} }, "twice"},
	}
	for _, tc := range cases {
		s := Spec{
			Links:  append([]LinkSpec(nil), good.Links...),
			Routes: []RouteSpec{{Name: "p", Links: []string{"a"}}},
		}
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("%s: Build accepted an invalid spec", tc.name)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustBuild on invalid spec did not panic")
			}
		}()
		Spec{}.MustBuild()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-path shape did not panic")
			}
		}()
		Star(0, 1)
	}()
}

// TestShapeRegistry: every advertised shape builds, unknown names
// error.
func TestShapeRegistry(t *testing.T) {
	for _, name := range ShapeNames() {
		spec, err := Shape(name, 4, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(m.Paths()); got != 4 {
			t.Errorf("%s: %d paths, want 4", name, got)
		}
		for i, p := range m.Paths() {
			if m.Path(p.Name) != p {
				t.Errorf("%s: Path(%q) lookup broken", name, p.Name)
			}
			if p.AvailBw() <= 0 {
				t.Errorf("%s %s: non-positive avail-bw", name, p.Name)
			}
			if i > 0 && p.Name <= m.Paths()[i-1].Name {
				t.Errorf("%s: path names not ordered: %q after %q", name, p.Name, m.Paths()[i-1].Name)
			}
		}
	}
	if _, err := Shape("bogus", 2, 1); err == nil {
		t.Error("unknown shape accepted")
	}
	// Fleet size reaches Shape from user flags: it must error, not
	// panic like the direct constructors.
	if _, err := Shape("star", 0, 1); err == nil {
		t.Error("zero-path Shape accepted")
	}
	if m := Star(2, 1).MustBuild(); m.Link("core") == nil || m.Link("zzz") != nil {
		t.Error("Link lookup broken")
	}
}

// TestCrossTrafficRealizesUtil: the built cross traffic must actually
// load the core link at its configured utilization.
func TestCrossTrafficRealizesUtil(t *testing.T) {
	m := Star(2, 42).MustBuild()
	m.Warmup(2 * netsim.Second)
	meter := netsim.NewMeter(m.Link("core"))
	m.Sim.RunFor(40 * netsim.Second)
	util := meter.Read().Util
	if util < coreUtil-0.06 || util > coreUtil+0.06 {
		t.Fatalf("core utilization %.3f, want ≈ %.2f", util, coreUtil)
	}
}

// TestCrossTrafficIsStopped: an aggregate built on top of the base load
// follows the spec's defaults and books no arrival until started.
func TestCrossTrafficIsStopped(t *testing.T) {
	m := Disjoint(1, 3).MustBuild()
	pending := m.Sim.Pending()
	agg := m.CrossTraffic(m.Links()[0], 1e6, 9)
	if len(agg.Sources) != DefaultSourcesPerLink {
		t.Fatalf("%d sources, want the default %d", len(agg.Sources), DefaultSourcesPerLink)
	}
	if got := m.Sim.Pending(); got != pending {
		t.Fatalf("built aggregate booked %d arrivals before Start", got-pending)
	}
	agg.Start()
	if got := m.Sim.Pending(); got != pending+DefaultSourcesPerLink {
		t.Fatalf("started aggregate booked %d arrivals, want %d", got-pending, DefaultSourcesPerLink)
	}
}

// TestSequencedProbersMeasure: a disjoint mesh fleet measured through
// the deterministic sequencer must recover each path's avail-bw (no
// shared links, so co-probing cannot disturb it).
func TestSequencedProbersMeasure(t *testing.T) {
	m := Disjoint(2, 11).MustBuild()
	m.Warmup(2 * netsim.Second)
	_, probers := m.SequencedProbers(10 * netsim.Millisecond)
	cfg := pathload.Config{PacketsPerStream: 60, StreamsPerFleet: 6}

	results := make([]pathload.Result, len(probers))
	errs := make([]error, len(probers))
	var wg sync.WaitGroup
	for i, p := range probers {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Retire()
			results[i], errs[i] = pathload.Run(p, cfg)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("sequencer stalled")
	}

	slack := pathload.Config{}.Slack()
	for i, p := range m.Paths() {
		if errs[i] != nil {
			t.Fatalf("%s: %v", p.Name, errs[i])
		}
		a := p.AvailBw()
		if !pathload.Brackets(results[i].Lo, results[i].Hi, a, slack) {
			t.Errorf("%s: range [%.2f, %.2f] Mb/s misses A = %.2f Mb/s",
				p.Name, results[i].Lo/1e6, results[i].Hi/1e6, a/1e6)
		}
	}
}

// countingSink tallies monitor samples per path.
type countingSink struct {
	mu     sync.Mutex
	byPath map[string]int
	errors int
}

func (c *countingSink) Observe(s pathload.Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byPath == nil {
		c.byPath = map[string]int{}
	}
	c.byPath[s.Path]++
	if s.Err != nil {
		c.errors++
	}
}

// TestMonitorFleetOverMesh: the fleet constructor feeds a
// pathload.Monitor whose sessions contend on one simulator; every path
// must deliver every round, to the channel and the sink alike.
func TestMonitorFleetOverMesh(t *testing.T) {
	m := Star(4, 5).MustBuild()
	m.Warmup(2 * netsim.Second)
	sink := &countingSink{}
	mon, _, err := m.MonitorFleet(pathload.MonitorConfig{
		Workers:  4,
		Rounds:   2,
		Interval: 20 * time.Millisecond,
		Seed:     5,
		Config:   pathload.Config{PacketsPerStream: 40, StreamsPerFleet: 4},
		Store:    sink,
	}, 10*netsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := mon.Paths(); len(got) != 4 || got[0] != "path-00" {
		t.Fatalf("monitor paths %v", got)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := range mon.Results() {
		if s.Err != nil {
			t.Errorf("%s round %d: %v", s.Path, s.Round, s.Err)
		}
		total++
	}
	mon.Wait()
	if total != 8 {
		t.Fatalf("%d samples, want 8", total)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.errors != 0 || len(sink.byPath) != 4 {
		t.Fatalf("sink saw %d paths (%d errors), want 4 paths, 0 errors", len(sink.byPath), sink.errors)
	}
	for id, n := range sink.byPath {
		if n != 2 {
			t.Errorf("%s: sink saw %d rounds, want 2", id, n)
		}
	}
	// The constructor must reject a broken config rather than half-wire
	// it.
	if _, _, err := m.MonitorFleet(pathload.MonitorConfig{Jitter: 2}, 0); err == nil {
		t.Error("invalid monitor config accepted")
	}
}

// TestOverlapGraphs pins the exported path-overlap graphs on the
// canonical shapes: TightOverlaps counts only shared links tight for at
// least one endpoint — the distinction the chain shape exists to
// exercise.
func TestOverlapGraphs(t *testing.T) {
	adj := func(g map[string][]string, p string) string {
		return fmt.Sprintf("%v", g[p])
	}

	// Star: one shared core, tight for everyone — the complete graph.
	star := Star(3, 1).MustBuild()
	if got := adj(star.TightOverlaps(), "path-01"); got != "[path-00 path-02]" {
		t.Errorf("star path-01 overlaps %s, want [path-00 path-02]", got)
	}

	// Chain of 3: neighbors share a hop, but only the path-01/path-02
	// pair shares a link (hop-02) that is tight for either of them —
	// path-00 and path-01 share the quiet hop-01.
	tight := Chain(3, 1).MustBuild().TightOverlaps()
	if got := adj(tight, "path-01"); got != "[path-02]" {
		t.Errorf("chain path-01 tight-overlaps %s, want only path-02 (hop-01 is quiet)", got)
	}
	if got := adj(tight, "path-00"); got != "[]" {
		t.Errorf("chain path-00 tight-overlaps %s, want none", got)
	}

	// Disjoint: no shared links at all, but every path still appears in
	// the map (schedule.NewStagger wants the full roster shape).
	dis := Disjoint(3, 1).MustBuild()
	g := dis.TightOverlaps()
	if len(g) != 3 {
		t.Fatalf("disjoint graph has %d entries, want 3", len(g))
	}
	for p, n := range g {
		if len(n) != 0 {
			t.Errorf("disjoint %s overlaps %v, want none", p, n)
		}
	}

	// Tree: the root is tight for every path, so TightOverlaps is
	// complete even across aggregation groups.
	tree := Tree(4, 1).MustBuild()
	if got := adj(tree.TightOverlaps(), "path-00"); got != "[path-01 path-02 path-03]" {
		t.Errorf("tree path-00 tight-overlaps %s, want all siblings", got)
	}
}
