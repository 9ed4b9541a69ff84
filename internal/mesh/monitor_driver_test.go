package mesh

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	pathload "repro"
	"repro/internal/netsim"
	"repro/internal/schedule"
	"repro/internal/simprobe"
	"repro/internal/tsstore"
)

// driverFleetConfig is a small-but-real sequenced fleet config shared by
// the lifecycle tests: virtual-time gaps, enough buffer that no session
// blocks on the channel mid-barrier.
func driverFleetConfig(paths, rounds int) pathload.MonitorConfig {
	return pathload.MonitorConfig{
		Rounds:   rounds,
		Interval: 500 * time.Millisecond,
		Seed:     7,
		Config:   pathload.Config{PacketsPerStream: 40, StreamsPerFleet: 4},
		Buffer:   paths * (rounds + 1),
	}
}

// TestMonitorDriverRejectsUnsupportedConfigs: a sequenced driver cannot
// host factory-backed (wall-clock-healing) sessions; Start must say so
// before any goroutine runs, with the remedy in the message.
func TestMonitorDriverRejectsUnsupportedConfigs(t *testing.T) {
	m := Disjoint(2, 11).MustBuild()
	m.Warmup(2 * netsim.Second)
	seq, probers := m.SequencedProbers(10 * netsim.Millisecond)
	drv := simprobe.NewSequencedDriver(seq)
	for i, p := range m.Paths() {
		drv.Register(p.Name, probers[i])
	}

	cfg := driverFleetConfig(2, 1)
	cfg.Driver = drv
	mon, err := pathload.NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.AddPath("path-00", probers[0]); err != nil {
		t.Fatal(err)
	}
	if err := mon.AddPathFactory("path-01", func() (pathload.Prober, error) {
		return probers[1], nil
	}); err != nil {
		t.Fatal(err)
	}
	err = mon.Start()
	if err == nil || !strings.Contains(err.Error(), "factory-backed") {
		t.Fatalf("factory path under a Driver: err = %v, want factory-backed rejection", err)
	}
}

// roundSpans records the virtual-time span of every round of every
// path: from the round's first SendStream to the instant its sample is
// published. Both ends are read on the session goroutine while it holds
// the sequencer floor (after a grant, before the next park), so reading
// the shared clock is safe and the spans are as deterministic as the
// fleet.
type roundSpans struct {
	sim   *netsim.Simulator
	mu    sync.Mutex
	open  map[string]netsim.Time
	spans map[string][][2]netsim.Time
}

func (r *roundSpans) begin(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.open[path]; !ok {
		r.open[path] = r.sim.Now()
	}
}

// Observe closes the path's open round; it is the fleet's SampleSink.
func (r *roundSpans) Observe(s pathload.Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[s.Path] = append(r.spans[s.Path], [2]netsim.Time{r.open[s.Path], r.sim.Now()})
	delete(r.open, s.Path)
}

// overlapping reports whether some round of a and some round of b were
// mid-round at the same virtual instant. Spans that merely touch — b
// admitted at the instant a released — do not overlap.
func (r *roundSpans) overlapping(a, b string) bool {
	for _, x := range r.spans[a] {
		for _, y := range r.spans[b] {
			if x[0] < y[1] && y[0] < x[1] {
				return true
			}
		}
	}
	return false
}

// spanProber reports the start of each round's probing to a roundSpans.
type spanProber struct {
	*simprobe.Prober
	path string
	rec  *roundSpans
}

func (p spanProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	p.rec.begin(p.path)
	return p.Prober.SendStream(spec)
}

// runAdmittedFleet runs a sequenced fleet over m under the admission
// policy to completion and returns the per-round spans plus the sorted
// sample transcript.
func runAdmittedFleet(t *testing.T, m *Mesh, rounds int, adm schedule.Admission) (*roundSpans, []string) {
	t.Helper()
	m.Warmup(2 * netsim.Second)
	seq, probers := m.SequencedProbers(10 * netsim.Millisecond)
	drv := simprobe.NewSequencedDriver(seq)
	rec := &roundSpans{sim: m.Sim, open: map[string]netsim.Time{}, spans: map[string][][2]netsim.Time{}}

	cfg := driverFleetConfig(len(probers), rounds)
	cfg.Driver = drv
	cfg.Admission = adm
	cfg.Store = rec
	mon, err := pathload.NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Paths() {
		drv.Register(p.Name, probers[i])
		if err := mon.AddPath(p.Name, spanProber{probers[i], p.Name, rec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	var lines []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range mon.Results() {
			if s.Err != nil {
				t.Errorf("%s round %d: %v", s.Path, s.Round, s.Err)
			}
			lines = append(lines, s.String())
		}
		mon.Wait()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("admitted fleet did not finish")
	}
	if want := len(probers) * rounds; len(lines) != want {
		t.Fatalf("%d samples, want %d", len(lines), want)
	}
	sort.Strings(lines)
	return rec, lines
}

// TestMonitorDriverStaggerReplays: admission waits pass in virtual time
// and waiters are granted lowest seat first, so a staggered fleet on a
// dense conflict graph replays byte-for-byte — where wall-clock Stagger
// lets released waiters race.
func TestMonitorDriverStaggerReplays(t *testing.T) {
	run := func() (string, string) {
		m := Star(4, 5).MustBuild()
		rec, lines := runAdmittedFleet(t, m, 2, schedule.NewStagger(m.TightOverlaps(), 0))
		return strings.Join(lines, "\n"), fmt.Sprint(rec.spans)
	}
	lines1, spans1 := run()
	lines2, spans2 := run()
	if lines1 != lines2 {
		t.Errorf("staggered star transcripts differ run to run:\n%s\n--- vs ---\n%s", lines1, lines2)
	}
	if spans1 != spans2 {
		t.Errorf("staggered star round spans differ run to run:\n%s\n--- vs ---\n%s", spans1, spans2)
	}
}

// TestMonitorDriverStaggerSeparatesConflicts: under Stagger no two
// paths that share a tight link are ever mid-round at the same virtual
// instant, while a mesh with no conflicts still co-probes under the
// same policy — the sequenced driver honours the policy, it does not
// serialize the fleet.
func TestMonitorDriverStaggerSeparatesConflicts(t *testing.T) {
	star := Star(4, 5).MustBuild()
	conflicts := star.TightOverlaps()
	rec, _ := runAdmittedFleet(t, star, 2, schedule.NewStagger(conflicts, 0))
	pairs := 0
	for a, others := range conflicts {
		for _, b := range others {
			pairs++
			if rec.overlapping(a, b) {
				t.Errorf("%s and %s share a tight link but were mid-round together: %v vs %v", a, b, rec.spans[a], rec.spans[b])
			}
		}
	}
	if pairs == 0 {
		t.Fatal("star mesh has no tight-link conflicts; the test checks nothing")
	}

	dis := Disjoint(3, 11).MustBuild()
	rec, _ = runAdmittedFleet(t, dis, 2, schedule.NewStagger(dis.TightOverlaps(), 0))
	if !rec.overlapping("path-00", "path-01") || !rec.overlapping("path-01", "path-02") {
		t.Errorf("conflict-free paths never co-probed under Stagger: %v", rec.spans)
	}
}

// TestMonitorDriverHonoursAdmission: a sequenced driver accepts an
// Admission policy and enforces it in virtual time — with one worker
// slot, never more than one path is mid-round, even on a mesh whose
// paths share nothing.
func TestMonitorDriverHonoursAdmission(t *testing.T) {
	m := Disjoint(3, 11).MustBuild()
	rec, _ := runAdmittedFleet(t, m, 2, schedule.NewStagger(nil, 1))
	paths := m.Paths()
	for i, a := range paths {
		for _, b := range paths[i+1:] {
			if rec.overlapping(a.Name, b.Name) {
				t.Errorf("%s and %s were mid-round together under NewStagger(nil, 1): %v vs %v", a.Name, b.Name, rec.spans[a.Name], rec.spans[b.Name])
			}
		}
	}
}

// TestMonitorFleetResumesFromStore: a sequenced fleet over a store that
// already holds history — `pathload -monitor -mesh … -archive` after a
// restart — continues every path's rounds and path-local clock from the
// store, and the resumed incarnation replays byte for byte.
func TestMonitorFleetResumesFromStore(t *testing.T) {
	const rounds = 2
	run := func() string {
		st := tsstore.New(tsstore.Config{})
		var lines []string
		for inc := 0; inc < 2; inc++ {
			// Each incarnation is a fresh process: a new mesh, one store.
			m := Star(4, 5).MustBuild()
			m.Warmup(2 * netsim.Second)
			cfg := driverFleetConfig(4, rounds)
			cfg.Store = st
			mon, _, err := m.MonitorFleet(cfg, 10*netsim.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if err := mon.Start(); err != nil {
				t.Fatal(err)
			}
			for s := range mon.Results() {
				if s.Err != nil {
					t.Errorf("%s round %d: %v", s.Path, s.Round, s.Err)
				}
				lines = append(lines, s.String())
			}
		}
		for _, p := range []string{"path-00", "path-01", "path-02", "path-03"} {
			pts := st.Snapshot(p)
			if len(pts) != 2*rounds {
				t.Fatalf("%s: %d points, want %d", p, len(pts), 2*rounds)
			}
			for i, pt := range pts {
				if pt.Round != i {
					t.Fatalf("%s: point %d is round %d — the series rewound", p, i, pt.Round)
				}
				if i > 0 && pt.At < pts[i-1].At+pts[i-1].Span {
					t.Fatalf("%s: round %d starts at %v, before round %d ended", p, i, pt.At, i-1)
				}
			}
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if a, b := run(), run(); a != b {
		t.Errorf("resumed fleet transcripts differ run to run:\n%s\n--- vs ---\n%s", a, b)
	}
}

// sinkFunc adapts a function to pathload.SampleSink.
type sinkFunc func(pathload.Sample)

func (f sinkFunc) Observe(s pathload.Sample) { f(s) }

// TestMonitorDriverStopInAdmission: Stop while sessions are parked in
// an admission wait — which has no deadline to wake them — is seen by
// the wait itself: the waiters give up, every seat retires, and
// Results closes. Sibling of TestMonitorDriverStopAtBarrier. Stop is
// called from the sink as the first sample is published: the publishing
// session still holds the floor, and the star has kept its three
// siblings waiting since the fleet started, so they are parked in
// admission by construction.
func TestMonitorDriverStopInAdmission(t *testing.T) {
	m := Star(4, 5).MustBuild()
	m.Warmup(2 * netsim.Second)
	var mon *pathload.Monitor
	cfg := driverFleetConfig(4, 0)
	cfg.Admission = schedule.NewStagger(m.TightOverlaps(), 0)
	cfg.Store = sinkFunc(func(pathload.Sample) { mon.Stop() })
	mon, _, err := m.MonitorFleet(cfg, 10*netsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}

	total := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range mon.Results() {
			if s.Err != nil {
				t.Errorf("%s round %d: %v", s.Path, s.Round, s.Err)
			}
			total++
		}
		mon.Wait()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("monitor did not shut down after Stop during admission waits")
	}
	if total != 1 {
		t.Fatalf("%d samples before close, want 1: the three waiters must give up unadmitted", total)
	}
}

// TestMonitorDriverStopAtBarrier: Stop on an unbounded (Rounds == 0)
// sequenced fleet is observed as soon as the round barrier releases —
// every parked session wakes, retires its prober, and Results closes.
// The test would hang (and trip the timeout guard) if a session stayed
// parked past Stop.
func TestMonitorDriverStopAtBarrier(t *testing.T) {
	m := Star(4, 5).MustBuild()
	m.Warmup(2 * netsim.Second)
	mon, _, err := m.MonitorFleet(driverFleetConfig(4, 0), 10*netsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}

	total := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range mon.Results() {
			if s.Err != nil {
				t.Errorf("%s round %d: %v", s.Path, s.Round, s.Err)
			}
			total++
			if total == 4 {
				// One full fleet round observed; the fleet is at or
				// heading into the round barrier.
				mon.Stop()
			}
		}
		mon.Wait()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("monitor did not shut down after Stop at the fleet round barrier")
	}
	if total < 4 {
		t.Fatalf("%d samples before close, want at least one full fleet round (4)", total)
	}
}

// flakyProber wraps a sequenced prober and fails the first SendStream
// outright, before touching the simulator — the shape of a transport
// error surfacing mid-round on one fleet member.
type flakyProber struct {
	inner *simprobe.Prober
	mu    sync.Mutex
	fails int
}

var errFlaky = errors.New("injected stream failure")

func (f *flakyProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	f.mu.Lock()
	if f.fails > 0 {
		f.fails--
		f.mu.Unlock()
		return pathload.StreamResult{}, errFlaky
	}
	f.mu.Unlock()
	return f.inner.SendStream(spec)
}

func (f *flakyProber) Idle(d time.Duration) error { return f.inner.Idle(d) }
func (f *flakyProber) RTT() time.Duration         { return f.inner.RTT() }

// TestMonitorDriverSurvivesProberError: a measurement error on one
// sequenced session must not wedge the fleet round barrier. The failed
// round publishes its error sample, the session parks at the barrier
// like any other, and every path — including the one that failed —
// delivers all its remaining rounds.
func TestMonitorDriverSurvivesProberError(t *testing.T) {
	m := Disjoint(2, 11).MustBuild()
	m.Warmup(2 * netsim.Second)
	seq, probers := m.SequencedProbers(10 * netsim.Millisecond)
	drv := simprobe.NewSequencedDriver(seq)

	cfg := driverFleetConfig(2, 3)
	cfg.Driver = drv
	mon, err := pathload.NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyProber{inner: probers[0], fails: 1}
	wrapped := []pathload.Prober{flaky, probers[1]}
	for i, p := range m.Paths() {
		// The driver owns the inner sequenced prober (RoundEnd/Gap/Retire
		// act on it); the monitor measures through the wrapper.
		drv.Register(p.Name, probers[i])
		if err := mon.AddPath(p.Name, wrapped[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}

	type key struct {
		path  string
		round int
	}
	got := map[key]error{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range mon.Results() {
			got[key{s.Path, s.Round}] = s.Err
		}
		mon.Wait()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("fleet stalled after an injected prober error")
	}

	if len(got) != 6 {
		t.Fatalf("%d samples, want 6 (2 paths x 3 rounds): %v", len(got), got)
	}
	for k, err := range got {
		if k == (key{"path-00", 0}) {
			if !errors.Is(err, errFlaky) {
				t.Errorf("path-00 round 0: err = %v, want the injected failure", err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s round %d: unexpected error %v", k.path, k.round, err)
		}
	}
}
