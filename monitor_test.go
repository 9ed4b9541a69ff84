package pathload_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/tsstore"

	pathload "repro"
)

// fakePath is an analytic prober: streams above its avail-bw ramp
// linearly, streams below arrive flat. It lets monitor logic be tested
// without a simulator.
type fakePath struct {
	avail float64

	// Concurrency accounting shared across a monitor's fakes.
	inflight, maxSeen *int32
	delay             time.Duration // per-stream wall delay, to force overlap

	streams int
	idled   time.Duration
	fail    error // returned by every SendStream when set
	// failFirst makes the first failFirst SendStream calls fail with
	// failErr, then the prober heals — a transient transport outage.
	failFirst int
	failErr   error
	// idleFail is returned by Idle calls of exactly idleFailOn — the
	// monitor's unjittered re-measurement gap, distinguishable from the
	// inter-stream idles pathload.Run issues itself.
	idleFail   error
	idleFailOn time.Duration
}

func (f *fakePath) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	if f.inflight != nil {
		cur := atomic.AddInt32(f.inflight, 1)
		defer atomic.AddInt32(f.inflight, -1)
		for {
			max := atomic.LoadInt32(f.maxSeen)
			if cur <= max || atomic.CompareAndSwapInt32(f.maxSeen, max, cur) {
				break
			}
		}
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.fail != nil {
		return pathload.StreamResult{}, f.fail
	}
	if f.failFirst > 0 {
		f.failFirst--
		return pathload.StreamResult{}, f.failErr
	}
	f.streams++
	res := pathload.StreamResult{Sent: spec.K}
	for i := 0; i < spec.K; i++ {
		owd := 5 * time.Millisecond
		if spec.EffectiveRate() > f.avail {
			owd += time.Duration(i) * 100 * time.Microsecond
		}
		res.OWDs = append(res.OWDs, pathload.OWDSample{Seq: i, OWD: owd})
	}
	return res, nil
}

func (f *fakePath) Idle(d time.Duration) error {
	if f.idleFail != nil && d == f.idleFailOn {
		return f.idleFail
	}
	f.idled += d
	return nil
}
func (f *fakePath) RTT() time.Duration { return time.Millisecond }

// fastCfg keeps fake-prober measurements tiny.
func fastCfg() pathload.Config {
	return pathload.Config{
		PacketsPerStream: 8,
		StreamsPerFleet:  3,
		DisableInitProbe: true,
	}
}

// TestMonitorConvergesPerPath: every path's reported range must bracket
// its own avail-bw, every round, and rounds must advance the per-path
// clock.
func TestMonitorConvergesPerPath(t *testing.T) {
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Workers:  3,
		Rounds:   2,
		Interval: 10 * time.Millisecond,
		Jitter:   0.5,
		Seed:     7,
		Config:   fastCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	avails := map[string]float64{}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("path-%02d", i)
		avails[id] = float64(i+1) * 7e6
		if err := m.AddPath(id, &fakePath{avail: avails[id]}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.Paths()); got != 10 {
		t.Fatalf("Paths() has %d entries, want 10", got)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}

	byPath := map[string][]pathload.Sample{}
	for s := range m.Results() {
		if s.Err != nil {
			t.Fatalf("sample error: %v", s.Err)
		}
		byPath[s.Path] = append(byPath[s.Path], s)
	}
	m.Wait()

	for id, a := range avails {
		samples := byPath[id]
		if len(samples) != 2 {
			t.Fatalf("%s: %d samples, want 2", id, len(samples))
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i].Round < samples[j].Round })
		for _, s := range samples {
			if s.Result.Lo-pathload.DefaultResolution > a || s.Result.Hi+pathload.DefaultResolution < a {
				t.Errorf("%s round %d: range [%.1f, %.1f] Mb/s misses avail %.1f",
					id, s.Round, s.Result.Lo/1e6, s.Result.Hi/1e6, a/1e6)
			}
		}
		if samples[0].At != 0 {
			t.Errorf("%s: first round At = %v, want 0", id, samples[0].At)
		}
		if samples[1].At <= samples[0].At {
			t.Errorf("%s: At did not advance: %v then %v", id, samples[0].At, samples[1].At)
		}
	}
}

// TestMonitorWorkerPoolBound: with W workers, no more than W streams
// are ever in flight at once, however many paths are registered.
func TestMonitorWorkerPoolBound(t *testing.T) {
	var inflight, maxSeen int32
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Workers: 2,
		Rounds:  1,
		Config:  fastCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		f := &fakePath{avail: 20e6, inflight: &inflight, maxSeen: &maxSeen, delay: 200 * time.Microsecond}
		if err := m.AddPath(fmt.Sprintf("p%d", i), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for range m.Results() {
		n++
	}
	if n != 16 {
		t.Fatalf("%d samples, want 16", n)
	}
	if got := atomic.LoadInt32(&maxSeen); got > 2 {
		t.Fatalf("worker pool leaked: %d concurrent streams, want ≤ 2", got)
	}
}

// TestNewMonitorRejectsNonFinite: NaN or ±Inf in any float field of
// MonitorConfig fails NewMonitor (a NaN Jitter used to pass the range
// check and drop the Interval gap), and so does one in the Scheduler.
func TestNewMonitorRejectsNonFinite(t *testing.T) {
	typ := reflect.TypeOf(pathload.MonitorConfig{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		for _, v := range nonFinite {
			var cfg pathload.MonitorConfig
			reflect.ValueOf(&cfg).Elem().Field(i).SetFloat(v)
			if _, err := pathload.NewMonitor(cfg); err == nil {
				t.Errorf("%s = %v accepted", typ.Field(i).Name, v)
			}
		}
	}
	for _, v := range nonFinite {
		cfg := pathload.MonitorConfig{Scheduler: &schedule.Budgeted{Inner: &schedule.Fixed{}, Rate: v}}
		if _, err := pathload.NewMonitor(cfg); err == nil {
			t.Errorf("Scheduler Budgeted.Rate = %v accepted", v)
		}
	}
}

// TestMonitorLifecycleErrors pins the misuse diagnostics.
func TestMonitorLifecycleErrors(t *testing.T) {
	if _, err := pathload.NewMonitor(pathload.MonitorConfig{Jitter: 1.5}); err == nil {
		t.Error("Jitter 1.5 accepted")
	}
	m, err := pathload.NewMonitor(pathload.MonitorConfig{Rounds: 1, Config: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err == nil {
		t.Error("Start with no paths accepted")
	}
	if err := m.AddPath("a", nil); err == nil {
		t.Error("nil prober accepted")
	}
	if err := m.AddPath("a", &fakePath{avail: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPath("a", &fakePath{avail: 1e6}); err == nil {
		t.Error("duplicate path accepted")
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPath("b", &fakePath{avail: 1e6}); err == nil {
		t.Error("AddPath after Start accepted")
	}
	if err := m.Start(); err == nil {
		t.Error("second Start accepted")
	}
	for range m.Results() {
	}
	m.Wait()
}

// TestMonitorStop: an open-ended monitor (Rounds = 0) runs until Stop,
// then closes its results channel.
func TestMonitorStop(t *testing.T) {
	m, err := pathload.NewMonitor(pathload.MonitorConfig{Workers: 4, Config: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.AddPath(fmt.Sprintf("p%d", i), &fakePath{avail: 30e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for s := range m.Results() {
		if s.Err != nil {
			t.Fatal(s.Err)
		}
		seen++
		if seen == 10 {
			m.Stop()
			m.Stop() // idempotent
		}
	}
	m.Wait()
	if seen < 10 {
		t.Fatalf("saw only %d samples before close", seen)
	}
}

// TestMonitorSurvivesMeasurementErrors: a failing path reports error
// samples round after round without killing its session or the others.
func TestMonitorSurvivesMeasurementErrors(t *testing.T) {
	m, err := pathload.NewMonitor(pathload.MonitorConfig{Rounds: 2, Config: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transport down")
	if err := m.AddPath("bad", &fakePath{fail: boom}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPath("good", &fakePath{avail: 10e6}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	var badErrs, goodOK int
	for s := range m.Results() {
		switch s.Path {
		case "bad":
			if s.Err == nil {
				t.Error("failing path produced a clean sample")
			} else if !errors.Is(s.Err, boom) {
				t.Errorf("error lost its cause: %v", s.Err)
			}
			badErrs++
		case "good":
			if s.Err != nil {
				t.Errorf("healthy path failed: %v", s.Err)
			}
			goodOK++
		}
		if !strings.Contains(s.String(), s.Path) {
			t.Errorf("Sample.String() %q omits the path", s.String())
		}
	}
	m.Wait()
	if badErrs != 2 || goodOK != 2 {
		t.Fatalf("bad=%d good=%d samples, want 2 and 2", badErrs, goodOK)
	}
}

// recordingSink is a SampleSink that tallies everything it sees.
type recordingSink struct {
	mu      sync.Mutex
	byPath  map[string][]pathload.Sample
	observe int
}

func (r *recordingSink) Observe(s pathload.Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byPath == nil {
		r.byPath = map[string][]pathload.Sample{}
	}
	r.byPath[s.Path] = append(r.byPath[s.Path], s)
	r.observe++
}

// TestMonitorStoreSink: a configured Store sees every sample — the
// same rounds the Results channel delivers, in per-path round order,
// error samples included.
func TestMonitorStoreSink(t *testing.T) {
	sink := &recordingSink{}
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Workers:  3,
		Rounds:   3,
		Interval: time.Millisecond,
		Seed:     11,
		Config:   fastCfg(),
		Store:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transport down")
	if err := m.AddPath("bad", &fakePath{fail: boom}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := m.AddPath(fmt.Sprintf("p%d", i), &fakePath{avail: float64(i+1) * 5e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	var delivered int
	for range m.Results() {
		delivered++
	}
	m.Wait()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.observe != delivered {
		t.Fatalf("sink saw %d samples, channel delivered %d", sink.observe, delivered)
	}
	if got := len(sink.byPath); got != 6 {
		t.Fatalf("sink saw %d paths, want 6", got)
	}
	for id, samples := range sink.byPath {
		if len(samples) != 3 {
			t.Errorf("%s: sink saw %d rounds, want 3", id, len(samples))
		}
		for i, s := range samples {
			// Observe is called from the path's own session goroutine, so
			// per-path order is round order even though cross-path
			// interleaving is scheduler-dependent.
			if s.Round != i {
				t.Errorf("%s: sink order broken: position %d holds round %d", id, i, s.Round)
			}
			if id == "bad" && s.Err == nil {
				t.Errorf("%s round %d: error sample lost its error", id, s.Round)
			}
		}
	}
}

// TestMonitorErrorRoundsFeedSinkAndRecover: a session whose prober
// errors keeps feeding the SampleSink round after round — and when the
// transport heals, the next interval's round succeeds. The session must
// never die from measurement errors.
func TestMonitorErrorRoundsFeedSinkAndRecover(t *testing.T) {
	sink := &recordingSink{}
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Workers:  2,
		Rounds:   3,
		Interval: time.Millisecond,
		Seed:     3,
		Config:   fastCfg(),
		Store:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transport down")
	// "dead" errors on every round's first stream; "flaky" only on
	// round 0's, then heals.
	if err := m.AddPath("dead", &fakePath{fail: boom}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPath("flaky", &fakePath{avail: 12e6, failFirst: 1, failErr: boom}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	delivered := map[string]int{}
	for s := range m.Results() {
		delivered[s.Path]++
	}
	m.Wait()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	for path, want := range map[string]int{"dead": 3, "flaky": 3} {
		if got := len(sink.byPath[path]); got != want {
			t.Fatalf("%s: sink saw %d rounds, want %d (sessions must survive errors)", path, got, want)
		}
		if delivered[path] != want {
			t.Errorf("%s: channel delivered %d rounds, want %d", path, delivered[path], want)
		}
	}
	for i, s := range sink.byPath["dead"] {
		if s.Round != i || !errors.Is(s.Err, boom) {
			t.Errorf("dead round %d: sample {round %d, err %v}, want the transport error every round", i, s.Round, s.Err)
		}
	}
	flaky := sink.byPath["flaky"]
	if !errors.Is(flaky[0].Err, boom) {
		t.Errorf("flaky round 0: err = %v, want the transport error", flaky[0].Err)
	}
	for _, s := range flaky[1:] {
		if s.Err != nil {
			t.Errorf("flaky round %d did not recover: %v", s.Round, s.Err)
		}
		if s.Result.Lo-pathload.DefaultResolution > 12e6 || s.Result.Hi+pathload.DefaultResolution < 12e6 {
			t.Errorf("flaky round %d: recovered range [%.1f, %.1f] Mb/s misses avail 12",
				s.Round, s.Result.Lo/1e6, s.Result.Hi/1e6)
		}
	}
}

// TestMonitorDefaultSchedulerIsFixed: a nil Scheduler and an explicit
// schedule.Fixed built from the same Interval/Jitter/Seed must produce
// identical per-path timelines — the refactor's compatibility contract.
func TestMonitorDefaultSchedulerIsFixed(t *testing.T) {
	run := func(sched schedule.Scheduler) map[string][]time.Duration {
		m, err := pathload.NewMonitor(pathload.MonitorConfig{
			Workers:   2,
			Rounds:    4,
			Interval:  20 * time.Millisecond,
			Jitter:    0.7,
			Seed:      13,
			Config:    fastCfg(),
			Scheduler: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := m.AddPath(fmt.Sprintf("p%d", i), &fakePath{avail: float64(i+2) * 4e6}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		ats := map[string][]time.Duration{}
		for s := range m.Results() {
			if s.Err != nil {
				t.Fatal(s.Err)
			}
			ats[s.Path] = append(ats[s.Path], s.At)
		}
		m.Wait()
		for _, a := range ats {
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		}
		return ats
	}

	def := run(nil)
	fixed := run(&schedule.Fixed{Interval: 20 * time.Millisecond, Jitter: 0.7, Seed: 13})
	if len(def) != len(fixed) {
		t.Fatalf("path counts differ: %d vs %d", len(def), len(fixed))
	}
	for p, want := range def {
		got := fixed[p]
		if len(got) != len(want) {
			t.Fatalf("%s: %d rounds with Fixed, %d with nil", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s round %d: At %v with Fixed, %v with nil scheduler", p, i, got[i], want[i])
			}
		}
	}
}

// countdownScheduler ends every session after its first n gaps.
type countdownScheduler struct {
	mu   sync.Mutex
	left map[string]int
	n    int
}

func (c *countdownScheduler) Next(path string, _ schedule.History) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left == nil {
		c.left = map[string]int{}
	}
	if _, seen := c.left[path]; !seen {
		c.left[path] = c.n
	}
	if c.left[path] == 0 {
		return 0, false
	}
	c.left[path]--
	return 0, true
}

// TestMonitorSchedulerEndsSession: a scheduler reporting ok == false
// ends the session cleanly — fewer rounds than Rounds, no error
// samples, results channel still closes.
func TestMonitorSchedulerEndsSession(t *testing.T) {
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Rounds:    10,
		Config:    fastCfg(),
		Scheduler: &countdownScheduler{n: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.AddPath(fmt.Sprintf("p%d", i), &fakePath{avail: 9e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	perPath := map[string]int{}
	for s := range m.Results() {
		if s.Err != nil {
			t.Fatal(s.Err)
		}
		perPath[s.Path]++
	}
	m.Wait()
	for p, n := range perPath {
		// 1 first round + 2 scheduler-granted gaps = 3 rounds.
		if n != 3 {
			t.Errorf("%s: %d rounds, want 3 (schedule exhausted)", p, n)
		}
	}
}

// forwardingScheduler hands Next to the scheduler it wraps and has no
// other method, the shape of any caller's own decorator.
type forwardingScheduler struct{ inner schedule.Scheduler }

func (f forwardingScheduler) Next(path string, h schedule.History) (time.Duration, bool) {
	return f.inner.Next(path, h)
}

// TestMonitorBudgetBindsThroughWrapper: a Budgeted hidden behind a
// wrapper still bounds the fleet's probe rate. Each of the two paths is
// fed Rate/2, so its second round starts no earlier than its first
// round's end plus the time that share takes to repay the first round's
// bits beyond what accrued while it ran.
func TestMonitorBudgetBindsThroughWrapper(t *testing.T) {
	const rate = 1e5 // bits per virtual second, fleet-wide
	const interval = 10 * time.Millisecond
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Rounds:    2,
		Config:    fastCfg(),
		Scheduler: forwardingScheduler{&schedule.Budgeted{Inner: &schedule.Fixed{Interval: interval}, Rate: rate}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := m.AddPath(fmt.Sprintf("p%d", i), &fakePath{avail: 9e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	rounds := map[string][]pathload.Sample{}
	for s := range m.Results() {
		if s.Err != nil {
			t.Fatal(s.Err)
		}
		rounds[s.Path] = append(rounds[s.Path], s)
	}
	m.Wait()
	const share = rate / 2
	for p, rs := range rounds {
		if len(rs) != 2 {
			t.Fatalf("%s: %d rounds, want 2", p, len(rs))
		}
		first := rs[0].Result
		end := rs[0].At + first.Elapsed
		debt := first.Bits - share*first.Elapsed.Seconds()
		repay := time.Duration(debt / share * float64(time.Second))
		if repay <= interval {
			t.Fatalf("%s: first round's %.0f bits over %v leave %v to repay, not more than the %v interval: the test proves nothing",
				p, first.Bits, first.Elapsed, repay, interval)
		}
		if rs[1].At < end+repay {
			t.Errorf("%s: round 1 starts at %v, before round 0's end %v plus the %v repayment", p, rs[1].At, end, repay)
		}
	}
}

// TestMonitorStaggerAdmission: with a Stagger admission policy built
// from a conflict graph, conflicting paths never measure concurrently
// while a free path still overlaps with them; every round is still
// delivered.
func TestMonitorStaggerAdmission(t *testing.T) {
	var pairInflight, pairMax, freeInflight, freeMax int32
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Rounds: 3,
		Config: fastCfg(),
		Admission: schedule.NewStagger(map[string][]string{
			"a": {"b"},
		}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	delay := 300 * time.Microsecond
	if err := m.AddPath("a", &fakePath{avail: 8e6, inflight: &pairInflight, maxSeen: &pairMax, delay: delay}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPath("b", &fakePath{avail: 8e6, inflight: &pairInflight, maxSeen: &pairMax, delay: delay}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPath("free", &fakePath{avail: 8e6, inflight: &freeInflight, maxSeen: &freeMax, delay: delay}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for s := range m.Results() {
		if s.Err != nil {
			t.Fatal(s.Err)
		}
		n++
	}
	m.Wait()
	if n != 9 {
		t.Fatalf("%d samples, want 9", n)
	}
	if got := atomic.LoadInt32(&pairMax); got > 1 {
		t.Errorf("conflicting paths a and b had %d streams in flight at once, want ≤ 1", got)
	}
}

// closablePath is a fakePath that records Close calls, the way a real
// transport prober (udprobe) hands its sockets back.
type closablePath struct {
	fakePath
	closed atomic.Bool
}

func (c *closablePath) Close() error {
	c.closed.Store(true)
	return nil
}

// flakyFactory dials closablePaths, failing the first dialFails
// attempts; it records every prober it handed out.
type flakyFactory struct {
	mu        sync.Mutex
	dialFails int
	dials     int
	probers   []*closablePath
	build     func() *closablePath
}

func (f *flakyFactory) dial() (pathload.Prober, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dials++
	if f.dialFails > 0 {
		f.dialFails--
		return nil, errors.New("connection refused")
	}
	p := f.build()
	f.probers = append(f.probers, p)
	return p, nil
}

// TestMonitorFactorySessionHeals: a factory-backed session whose round
// fails must publish the error sample, close the condemned prober,
// re-dial, and succeed on the next round — the session heals instead of
// dying.
func TestMonitorFactorySessionHeals(t *testing.T) {
	boom := errors.New("transport down")
	first := true
	f := &flakyFactory{build: func() *closablePath {
		p := &closablePath{fakePath: fakePath{avail: 10e6}}
		if first {
			// The first prober fails every stream; its replacement works.
			first = false
			p.fakePath.fail = boom
		}
		return p
	}}
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Rounds:    3,
		Interval:  time.Millisecond,
		Config:    fastCfg(),
		Reconnect: pathload.Reconnect{Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPathFactory("healer", f.dial); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	var samples []pathload.Sample
	for s := range m.Results() {
		samples = append(samples, s)
	}
	m.Wait()

	if len(samples) != 3 {
		t.Fatalf("%d samples, want 3", len(samples))
	}
	if !errors.Is(samples[0].Err, boom) {
		t.Errorf("round 0 err = %v, want the transport error", samples[0].Err)
	}
	for _, s := range samples[1:] {
		if s.Err != nil {
			t.Errorf("round %d did not heal: %v", s.Round, s.Err)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dials != 2 || len(f.probers) != 2 {
		t.Fatalf("factory dialed %d times handing out %d probers, want 2 and 2", f.dials, len(f.probers))
	}
	if !f.probers[0].closed.Load() {
		t.Error("the failed prober was not closed before re-dialing")
	}
	if !f.probers[1].closed.Load() {
		t.Error("the last prober was not closed at session end")
	}
}

// TestMonitorFactoryRedialsUntilStop: a factory session never gives
// up. A flaky endpoint that refuses five dials is measured once a dial
// succeeds, with no sample for the refused dials, and a dead endpoint
// is re-dialed, silently, until Stop ends its session.
func TestMonitorFactoryRedialsUntilStop(t *testing.T) {
	var mu sync.Mutex
	dials := map[string]int{}
	dial := func(path string, refusals int) pathload.ProberFactory {
		return func() (pathload.Prober, error) {
			mu.Lock()
			defer mu.Unlock()
			dials[path]++
			if refusals < 0 || dials[path] <= refusals {
				return nil, errors.New("no route to host")
			}
			return &fakePath{avail: 10e6}, nil
		}
	}
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Rounds:    2,
		Config:    fastCfg(),
		Reconnect: pathload.Reconnect{Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPathFactory("flaky", dial("flaky", 5)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPathFactory("dead", dial("dead", -1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	perPath := map[string][]pathload.Sample{}
	for s := range m.Results() {
		perPath[s.Path] = append(perPath[s.Path], s)
		if len(perPath["flaky"]) == 2 {
			m.Stop()
		}
	}
	m.Wait()

	for _, s := range perPath["flaky"] {
		if s.Err != nil {
			t.Errorf("flaky round %d: %v", s.Round, s.Err)
		}
	}
	if got := len(perPath["flaky"]); got != 2 {
		t.Errorf("flaky: %d samples, want 2", got)
	}
	if got := len(perPath["dead"]); got != 0 {
		t.Errorf("dead: %d samples, want none: a refused dial is not a round", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if dials["flaky"] != 6 {
		t.Errorf("flaky dialed %d times, want 6", dials["flaky"])
	}
	if dials["dead"] < 3 {
		t.Errorf("dead dialed %d times before Stop, want it re-dialed over flaky's five refusals", dials["dead"])
	}
}

// TestMonitorFactoryIdleErrorHeals: on a factory-backed session a
// failed re-measurement gap publishes its error sample and the session
// reconnects and keeps measuring — unlike AddPath sessions, whose
// prober the monitor cannot replace.
func TestMonitorFactoryIdleErrorHeals(t *testing.T) {
	const gap = 1237 * time.Microsecond
	tick := errors.New("clock lost")
	var made []*closablePath
	var mu sync.Mutex
	factory := func() (pathload.Prober, error) {
		mu.Lock()
		defer mu.Unlock()
		p := &closablePath{fakePath: fakePath{avail: 9e6}}
		if len(made) == 0 {
			p.fakePath.idleFail = tick
			p.fakePath.idleFailOn = gap
		}
		made = append(made, p)
		return p, nil
	}
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Rounds:    4,
		Interval:  gap,
		Config:    fastCfg(),
		Reconnect: pathload.Reconnect{Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPathFactory("sleepless", factory); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	var samples []pathload.Sample
	for s := range m.Results() {
		samples = append(samples, s)
	}
	m.Wait()

	// Round 0 succeeds, round 1 is the idle error, rounds 2 and 3 come
	// from the replacement prober: 4 samples, the Rounds budget.
	if len(samples) != 4 {
		t.Fatalf("%d samples, want 4: %v", len(samples), samples)
	}
	if samples[0].Err != nil {
		t.Errorf("round 0 should succeed: %v", samples[0].Err)
	}
	if samples[1].Round != 1 || !errors.Is(samples[1].Err, tick) {
		t.Errorf("idle failure sample = {round %d, err %v}, want round 1 wrapping %v", samples[1].Round, samples[1].Err, tick)
	}
	for _, s := range samples[2:] {
		if s.Err != nil {
			t.Errorf("round %d did not heal after the idle error: %v", s.Round, s.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(made) != 2 {
		t.Fatalf("factory made %d probers, want 2 (original + replacement)", len(made))
	}
	if !made[0].closed.Load() {
		t.Error("the prober whose Idle failed was not closed")
	}
}

// TestMonitorStopInterruptsSlowDial: Stop (and so Wait) must not be
// held hostage by a ProberFactory blocked inside a slow dial — the
// dial is raced against stop.
func TestMonitorStopInterruptsSlowDial(t *testing.T) {
	block := make(chan struct{})
	factory := func() (pathload.Prober, error) {
		<-block
		return nil, errors.New("much too late")
	}
	m, err := pathload.NewMonitor(pathload.MonitorConfig{Rounds: 1, Config: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPathFactory("stuck", factory); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	done := make(chan struct{})
	go func() {
		for range m.Results() {
		}
		m.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait blocked on an in-flight factory dial after Stop")
	}
	close(block) // release the reaped dial goroutine
}

// idleBlocker hands control to the test inside Idle so the test can
// order Stop strictly before the idle error's publication.
type idleBlocker struct {
	fakePath
	gap     time.Duration
	entered chan struct{}
	release chan struct{}
}

func (b *idleBlocker) Idle(d time.Duration) error {
	if d == b.gap {
		close(b.entered)
		<-b.release
		return errors.New("idle sabotaged")
	}
	return b.fakePath.Idle(d)
}

// TestMonitorIdleErrorPrefersBufferOverStop: with Stop already called
// and room in the results buffer, the idle-error sample must still be
// delivered — the same prefer-the-buffer policy round samples get. The
// old code raced the send against the closed stop channel and dropped
// the sample nondeterministically.
func TestMonitorIdleErrorPrefersBufferOverStop(t *testing.T) {
	const gap = 1237 * time.Microsecond
	b := &idleBlocker{
		fakePath: fakePath{avail: 9e6},
		gap:      gap,
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
	}
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Rounds:   3,
		Interval: gap,
		Buffer:   4,
		Config:   fastCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPath("blocked", b); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	first := <-m.Results()
	if first.Err != nil {
		t.Fatalf("round 0 failed: %v", first.Err)
	}
	<-b.entered // the session is inside the re-measurement gap
	m.Stop()    // stop is now closed…
	close(b.release)

	var got []pathload.Sample
	for s := range m.Results() {
		got = append(got, s)
	}
	m.Wait()
	// …and the idle-error sample must be delivered anyway: the buffer
	// had room.
	if len(got) != 1 || got[0].Err == nil || !strings.Contains(got[0].Err.Error(), "idle sabotaged") {
		t.Fatalf("after Stop, got samples %v, want exactly the idle-error sample", got)
	}
}

// TestMonitorIdleErrorReachesSink: when the re-measurement gap itself
// fails (a real transport losing its clock or socket), the session ends
// — but not silently: the idle error is published as a sample to both
// the sink and the channel, and other sessions are unaffected.
func TestMonitorIdleErrorReachesSink(t *testing.T) {
	// A sentinel gap the measurement's own inter-stream idles cannot
	// collide with; Jitter 0 keeps it exact.
	const gap = 1237 * time.Microsecond
	sink := &recordingSink{}
	m, err := pathload.NewMonitor(pathload.MonitorConfig{
		Workers:  2,
		Rounds:   3,
		Interval: gap,
		Seed:     3,
		Config:   fastCfg(),
		Store:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	tick := errors.New("clock lost")
	if err := m.AddPath("sleepless", &fakePath{avail: 9e6, idleFail: tick, idleFailOn: gap}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPath("healthy", &fakePath{avail: 9e6}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	for range m.Results() {
	}
	m.Wait()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if got := len(sink.byPath["healthy"]); got != 3 {
		t.Errorf("healthy: %d rounds, want 3 (idle failure elsewhere leaked)", got)
	}
	got := sink.byPath["sleepless"]
	if len(got) != 2 {
		t.Fatalf("sleepless: sink saw %d samples, want 2 (round 0 + the idle error)", len(got))
	}
	if got[0].Err != nil {
		t.Errorf("sleepless round 0 should succeed before the gap: %v", got[0].Err)
	}
	last := got[1]
	if last.Round != 1 || !errors.Is(last.Err, tick) {
		t.Errorf("idle failure sample = {round %d, err %v}, want round 1 wrapping %v", last.Round, last.Err, tick)
	}
}

// TestMonitorResumeState: a monitor whose Store holds a path's history
// continues it — round n+1 from the last point's At + Span, the
// lease-handoff and restart contract — while a path the store has never
// seen starts at round 0, and Rounds counts new measurements, not
// absolute round numbers. Factory and AddPath sessions resume alike. A
// sink that wraps the store without forwarding Resume starts fresh.
func TestMonitorResumeState(t *testing.T) {
	st := tsstore.New(tsstore.Config{})
	st.Observe(pathload.Sample{
		Path: "old", Round: 4, At: 10 * time.Second,
		Result: pathload.Result{Lo: 1e6, Hi: 2e6, Elapsed: 2 * time.Second},
	})
	run := func(sink pathload.SampleSink) map[string][]pathload.Sample {
		t.Helper()
		mon, err := pathload.NewMonitor(pathload.MonitorConfig{Rounds: 2, Config: fastCfg(), Store: sink})
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.AddPathFactory("old", func() (pathload.Prober, error) { return &fakePath{avail: 5e6}, nil }); err != nil {
			t.Fatal(err)
		}
		if err := mon.AddPath("new", &fakePath{avail: 5e6}); err != nil {
			t.Fatal(err)
		}
		if err := mon.Start(); err != nil {
			t.Fatal(err)
		}
		got := map[string][]pathload.Sample{}
		for s := range mon.Results() {
			if s.Err != nil {
				t.Fatalf("round error: %v", s.Err)
			}
			got[s.Path] = append(got[s.Path], s)
		}
		return got
	}
	check := func(what string, got []pathload.Sample, round int, at time.Duration) {
		t.Helper()
		if len(got) != 2 || got[0].Round != round || got[1].Round != round+1 {
			t.Fatalf("%s: %d samples %v, want rounds %d, %d", what, len(got), got, round, round+1)
		}
		if got[0].At != at || got[1].At <= got[0].At {
			t.Fatalf("%s: At %v then %v, want %v then later", what, got[0].At, got[1].At, at)
		}
	}

	got := run(st)
	check("old path", got["old"], 5, 12*time.Second)
	check("new path", got["new"], 0, 0)

	wrapped := run(struct{ pathload.SampleSink }{st})
	check("old path behind a wrapper", wrapped["old"], 0, 0)
}
