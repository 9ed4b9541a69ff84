package pathload

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/schedule"
)

// Monitor defaults.
const (
	// DefaultMonitorWorkers bounds how many paths measure at once.
	DefaultMonitorWorkers = 4
)

// A Driver owns a monitor's notion of time and session lifecycle: how
// sessions wait for admission and wait out their re-measurement gaps,
// and where they announce round boundaries and end-of-life. Its four
// methods all run on session goroutines; there is nothing else to
// start. The default (nil Driver) is wall time — admission blocks the
// session goroutine, gaps pass through the prober's own Idle, round
// boundaries and retirement are no-ops — which is byte-identical to
// the monitor's original loop. A sequenced driver
// (internal/simprobe.SequencedDriver) instead parks every session at a
// fleet round barrier and spends admission waits and gaps in virtual
// time, so a whole monitored fleet over one shared simulation advances
// on one virtual clock with a scheduling-independent interleave.
//
// Call ordering per session, all from that session's goroutine:
// Acquire before each round, RoundEnd after each published non-final
// round, then Gap for the scheduler's gap, and Retire exactly once when
// the session ends — whatever the cause.
type Driver interface {
	// Acquire waits until adm admits path's next round and returns the
	// release to call when the round is over, or ok == false when stop
	// closes first (no slot is held then). Under a non-nil
	// MonitorConfig.Driver adm is MonitorConfig.Admission as configured:
	// nil means no policy, and the driver admits at once.
	Acquire(path string, adm schedule.Admission, stop <-chan struct{}) (release func(), ok bool)
	// RoundEnd announces that path finished round and will schedule
	// another. A barrier-based driver blocks here until every live
	// session has also finished its round.
	RoundEnd(path string, round int)
	// Gap spends the scheduler's re-measurement gap for path, whose
	// live prober is p. An error ends or heals the session exactly as a
	// failed Prober.Idle does.
	Gap(path string, p Prober, gap time.Duration) error
	// Retire announces path's end-of-life so the driver stops waiting
	// on it. It must be safe to call whether or not the session ever
	// reached RoundEnd.
	Retire(path string)
}

// wallDriver is the nil-Driver default: wall-clock time, no barriers.
// Its behavior is exactly the monitor's original loop, so legacy
// wall-clock runs stay byte-identical.
type wallDriver struct{}

func (wallDriver) Acquire(path string, adm schedule.Admission, stop <-chan struct{}) (func(), bool) {
	return adm.Acquire(path, stop)
}

func (wallDriver) RoundEnd(string, int) {}

func (wallDriver) Gap(_ string, p Prober, gap time.Duration) error { return p.Idle(gap) }

func (wallDriver) Retire(string) {}

// MonitorConfig tunes a Monitor. The zero value is usable: it measures
// every path back-to-back (no re-measurement gap) with the paper's
// measurement defaults until Stop is called.
type MonitorConfig struct {
	// Workers bounds the number of measurements in flight at once
	// across all paths: the worker cap of the default Admission
	// policy. 0 selects DefaultMonitorWorkers.
	Workers int
	// Interval is the target idle gap between one path's consecutive
	// measurements, spent in the prober's Idle (virtual time under the
	// simulator, wall time on a real network). 0 re-measures
	// immediately.
	Interval time.Duration
	// Jitter spreads each gap uniformly over
	// [(1−Jitter)·Interval, (1+Jitter)·Interval], desynchronizing
	// paths that would otherwise probe in phase. Must lie in [0, 1].
	Jitter float64
	// Rounds is the number of measurements per path; 0 runs until
	// Stop.
	Rounds int
	// Buffer is the results channel capacity; 0 selects one slot per
	// path, which lets every path finish a round without a consumer.
	Buffer int
	// Seed derives the per-path jitter streams; a fixed seed makes the
	// schedule reproducible. 0 selects 1.
	Seed int64
	// Config is the measurement configuration applied to every round
	// on every path.
	Config Config
	// Store, when non-nil, additionally receives every sample the
	// monitor produces, before the Results channel sees it. Use it to
	// retain time series (internal/tsstore) without giving up the live
	// channel. When the sink also implements schedule.VarSource (as
	// internal/tsstore.Store does), schedulers get windowed-ρ feedback
	// from it. When it also has a Resume(path string) PathState method
	// (tsstore.Store again), Start begins every session at the state it
	// returns: a monitor over a store recovered from an archive, or an
	// agent's store across a lease change, continues each series —
	// monotone rounds, advancing path-local clock — instead of rewinding
	// to round 0, and a fresh store returns the zero state. A sink that
	// wraps a store without forwarding Resume starts every path fresh.
	Store SampleSink
	// Scheduler decides each path's re-measurement gap. nil selects
	// schedule.Fixed{Interval, Jitter, Seed} — byte-identical to the
	// monitor's original jittered schedule. A scheduler that reports
	// ok == false ends that path's session cleanly (its schedule is
	// exhausted), independent of Rounds.
	Scheduler schedule.Scheduler
	// Admission gates measurement starts across the fleet. nil selects
	// schedule.NewStagger(nil, Workers), a worker pool — except under a
	// Driver, where nil means every session is admitted at once; a
	// conflict graph keeps paths that share a tight link from co-probing
	// (feed NewStagger mesh.Mesh.TightOverlaps). When Admission is set,
	// Workers only applies through the policy itself. The session waits
	// through Driver.Acquire: queued in wall time by default, oldest
	// first, parked in virtual time under a sequenced driver.
	Admission schedule.Admission
	// Reconnect tunes how factory-backed sessions (AddPathFactory)
	// heal after a transport failure. The zero value selects the
	// defaults documented on the Reconnect type; it is ignored for
	// paths added with AddPath.
	Reconnect Reconnect
	// Driver, when non-nil, takes over time and session lifecycle (see
	// the Driver interface). Setting it restricts the monitor to
	// AddPath sessions: factory healing needs wall time. Workers is
	// ignored — with a nil Admission the driver admits every session,
	// interleave control being its job — and a non-nil Admission is
	// honoured through Driver.Acquire. nil keeps the original wall-clock
	// loop.
	Driver Driver
}

// A ProberFactory dials a fresh Prober for one path. The monitor calls
// it whenever the path needs a (re)connection: once before the first
// round, and again after any round whose transport failed. It owns the
// probers it receives from the factory and closes those that implement
// io.Closer when they fail or when the session ends.
type ProberFactory func() (Prober, error)

// Reconnect is the heal policy for factory-backed sessions: when a
// round fails on a real transport, the session closes the prober,
// re-dials through the path's ProberFactory with exponential backoff,
// and carries on — a long-lived monitor must outlive sender restarts,
// route flaps, and idle-killed control connections. A session never
// gives up: it re-dials until Stop.
type Reconnect struct {
	// Backoff is the wait before the first re-dial (default 500 ms);
	// it doubles after each consecutive dial failure.
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 15 s).
	MaxBackoff time.Duration
}

// withDefaults returns r with zero fields replaced by defaults.
func (r Reconnect) withDefaults() Reconnect {
	if r.Backoff == 0 {
		r.Backoff = 500 * time.Millisecond
	}
	if r.MaxBackoff == 0 {
		r.MaxBackoff = 15 * time.Second
	}
	if r.MaxBackoff < r.Backoff {
		r.MaxBackoff = r.Backoff
	}
	return r
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c MonitorConfig) withDefaults(paths int) MonitorConfig {
	if c.Workers == 0 {
		c.Workers = DefaultMonitorWorkers
	}
	if c.Buffer == 0 {
		c.Buffer = paths
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c MonitorConfig) validate() error {
	if c.Workers < 0 || c.Rounds < 0 || c.Buffer < 0 || c.Interval < 0 {
		return fmt.Errorf("pathload: monitor config has negative Workers/Rounds/Buffer/Interval")
	}
	if !(c.Jitter >= 0 && c.Jitter <= 1) { // NaN too
		return fmt.Errorf("pathload: monitor Jitter %v outside [0,1]", c.Jitter)
	}
	if c.Reconnect.Backoff < 0 || c.Reconnect.MaxBackoff < 0 {
		return fmt.Errorf("pathload: monitor Reconnect has negative Backoff/MaxBackoff")
	}
	return schedule.Validate(c.Scheduler)
}

// A Sample is one timestamped point of a path's avail-bw time series.
type Sample struct {
	// Path is the identifier given to AddPath.
	Path string
	// Round counts the path's measurements from 0.
	Round int
	// At is the path-local time offset of the measurement start: the
	// accumulated probing, idle, and reconnect-backoff durations since
	// the session began. Under the simulator it is exact virtual time,
	// so it is reproducible run-to-run; Wall is not.
	At time.Duration
	// Wall is the wall-clock completion time of the round.
	Wall time.Time
	// Result is the measurement outcome; valid when Err is nil.
	Result Result
	// Err is the measurement error, if the round failed. The session
	// keeps running: transient failures on real networks should not
	// kill a long-lived monitor.
	Err error
}

// String formats the sample compactly, omitting the wall clock so the
// output is deterministic under the simulator.
func (s Sample) String() string {
	if s.Err != nil {
		return fmt.Sprintf("%s[%d] @%v error: %v", s.Path, s.Round, s.At, s.Err)
	}
	return fmt.Sprintf("%s[%d] @%v %v", s.Path, s.Round, s.At, s.Result)
}

// A SampleSink receives every Sample a Monitor produces, the retention
// side of the paper's dynamics viewpoint (§VI): the Results channel is
// for live consumption, a sink is for history. internal/tsstore.Store
// is the canonical implementation.
//
// Observe is called synchronously from each path's session goroutine,
// so implementations must be safe for concurrent use and should return
// quickly — a slow sink delays that path's next round. Unlike the
// Results channel, a sink sees every finished round unconditionally:
// samples a stopped or slow consumer would miss still reach the sink.
type SampleSink interface {
	Observe(Sample)
}

// PathState is where a path's session resumes counting: the next
// round number and the accumulated path-local clock. A Store with a
// Resume method supplies it at Start (tsstore.Store derives it from
// the path's retained series), so the path's sample stream stays
// monotone across monitor restarts instead of rewinding to round 0.
// The zero value is a fresh path.
type PathState struct {
	// Round is the round number the first new sample carries.
	Round int
	// At is the path-local time offset the first new sample starts at.
	At time.Duration
}

// session is the per-path state of a monitor.
type session struct {
	id      string
	prober  Prober         // nil on a factory-backed session awaiting (re)dial
	factory ProberFactory  // nil on AddPath sessions
	resume  PathState      // where run starts counting (zero = fresh)
	hist    sessionHistory // scheduler feedback, maintained by run
}

// closeProber releases a factory-owned prober; probers handed to
// AddPath stay the caller's to close.
func (s *session) closeProber() {
	if s.factory == nil || s.prober == nil {
		return
	}
	if c, ok := s.prober.(io.Closer); ok {
		c.Close()
	}
	s.prober = nil
}

// sessionHistory implements schedule.History for one session: the
// seat is fixed at Start, the last finished round comes from the
// session's own state (always available, only ever touched from the
// session goroutine), windowed-ρ queries are answered by the configured
// Store when it can (tsstore), and report ok == false otherwise.
type sessionHistory struct {
	index, paths int // the session's seat in the fleet roster
	last         schedule.Round
	haveLast     bool
	vars         schedule.VarSource // nil when the Store cannot answer
}

func (h *sessionHistory) Seat(string) (int, int) { return h.index, h.paths }

func (h *sessionHistory) LastRound(string) (schedule.Round, bool) { return h.last, h.haveLast }

func (h *sessionHistory) RelVar(path string, window time.Duration) (float64, bool) {
	if h.vars == nil {
		return 0, false
	}
	return h.vars.RelVar(path, window)
}

// A Monitor measures many paths concurrently and periodically, turning
// one-shot Run calls into streaming per-path avail-bw time series — the
// paper's "dynamics" viewpoint operationalized (§VI): each path gets a
// session whose re-measurement gaps come from a pluggable Scheduler
// (internal/schedule: fixed jittered intervals by default, ρ-adaptive
// or budgeted alternatives), an Admission policy gates how sessions
// probe simultaneously (a bounded worker pool by default, tight-link
// staggering optionally), and every finished round is published on
// Results as a timestamped Sample.
//
// Each path's Prober is only ever driven from that path's session
// goroutine, satisfying the Prober single-goroutine contract; paths
// never share measurement state, so per-path results are independent
// of worker scheduling. With deterministic probers (internal/simprobe
// on per-path simulators) the whole run is reproducible.
//
// Lifecycle: NewMonitor, AddPath (own prober) or AddPathFactory
// (monitor-dialed, reconnecting — the real-network mode) for every
// path, Start, consume Results; then either Wait (Rounds > 0) or Stop.
// Results is closed when every session has finished. Attach a
// SampleSink via MonitorConfig.Store to retain the per-path series
// beyond the channel (windowed ρ, quantiles, scrape export — see
// internal/tsstore); a store that already holds a path's series is also
// where that path's session resumes counting at Start.
type Monitor struct {
	cfg      MonitorConfig
	sessions []*session
	byID     map[string]bool
	results  chan Sample
	sched    schedule.Scheduler
	adm      schedule.Admission
	drv      Driver
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex
	started bool
}

// NewMonitor creates a monitor; add paths with AddPath, then Start.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Monitor{cfg: cfg, byID: map[string]bool{}, stop: make(chan struct{})}, nil
}

// AddPath registers a path under a unique identifier. The monitor takes
// over the prober: it must not be used elsewhere until the monitor is
// done. Paths must be added before Start.
func (m *Monitor) AddPath(id string, p Prober) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("pathload: AddPath(%q) after Start", id)
	}
	if p == nil {
		return fmt.Errorf("pathload: AddPath(%q) with nil prober", id)
	}
	if m.byID[id] {
		return fmt.Errorf("pathload: duplicate path %q", id)
	}
	m.byID[id] = true
	m.sessions = append(m.sessions, &session{id: id, prober: p})
	return nil
}

// AddPathFactory registers a path whose prober is dialed — and, after
// transport failures, re-dialed — by the monitor itself, under the
// MonitorConfig.Reconnect policy. This is the real-network registration
// path: hand it a factory that dials a udprobe sender and the session
// heals across sender restarts instead of dying with the first broken
// control connection. Probers obtained from the factory are owned by
// the monitor and closed (when they implement io.Closer) on failure and
// at session end. Paths must be added before Start.
func (m *Monitor) AddPathFactory(id string, f ProberFactory) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("pathload: AddPathFactory(%q) after Start", id)
	}
	if f == nil {
		return fmt.Errorf("pathload: AddPathFactory(%q) with nil factory", id)
	}
	if m.byID[id] {
		return fmt.Errorf("pathload: duplicate path %q", id)
	}
	m.byID[id] = true
	m.sessions = append(m.sessions, &session{id: id, factory: f})
	return nil
}

// Paths returns the registered path identifiers in AddPath order.
func (m *Monitor) Paths() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, len(m.sessions))
	for i, s := range m.sessions {
		ids[i] = s.id
	}
	return ids
}

// Start launches one session per path and returns immediately. Results
// must be consumed (or the Buffer sized generously) or sessions block.
func (m *Monitor) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("pathload: monitor started twice")
	}
	if len(m.sessions) == 0 {
		return fmt.Errorf("pathload: monitor has no paths")
	}
	if m.cfg.Driver != nil {
		for _, s := range m.sessions {
			if s.factory != nil {
				return fmt.Errorf("pathload: monitor Driver cannot run factory-backed path %q: redial healing needs wall time (use AddPath with a prober the driver owns)", s.id)
			}
		}
	}
	m.started = true
	m.cfg = m.cfg.withDefaults(len(m.sessions))
	m.results = make(chan Sample, m.cfg.Buffer)
	m.sched = m.cfg.Scheduler
	if m.sched == nil {
		// The original schedule: jittered Interval, per-path streams
		// derived from Seed and the path name (not registration order),
		// so adding a path does not reshuffle the others' schedules.
		m.sched = &schedule.Fixed{Interval: m.cfg.Interval, Jitter: m.cfg.Jitter, Seed: m.cfg.Seed}
	}
	m.adm = m.cfg.Admission
	m.drv = m.cfg.Driver
	if m.drv == nil {
		m.drv = wallDriver{}
		if m.adm == nil {
			m.adm = schedule.NewStagger(nil, m.cfg.Workers)
		}
	}
	vars, _ := m.cfg.Store.(schedule.VarSource)
	resumer, _ := m.cfg.Store.(interface{ Resume(path string) PathState })
	for i, s := range m.sessions {
		s.hist.index, s.hist.paths = i, len(m.sessions)
		s.hist.vars = vars
		if resumer != nil {
			s.resume = resumer.Resume(s.id)
		}
		m.wg.Add(1)
		go m.run(s)
	}
	go func() {
		m.wg.Wait()
		close(m.results)
	}()
	return nil
}

// Results delivers one Sample per finished round, in completion order.
// The channel is closed when every session has finished (all rounds
// done, or Stop). It is nil before Start.
func (m *Monitor) Results() <-chan Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.results
}

// Stop asks every session to finish at its next boundary: a session
// mid-measurement completes the round and still delivers its sample
// (as long as the results buffer has room). It is idempotent and safe
// to call concurrently with consumption.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
}

// Wait blocks until every session has finished. With Rounds == 0 that
// only happens after Stop.
func (m *Monitor) Wait() { m.wg.Wait() }

// publish delivers a finished sample to the sink and then the results
// channel. Delivery prefers the channel's buffer even when Stop has
// been called — a finished round is data — and falls back to racing
// stop only when the buffer is full (the consumer may be gone). It
// reports whether the channel accepted the sample; the sink always sees
// it first.
func (m *Monitor) publish(sample Sample) bool {
	if m.cfg.Store != nil {
		m.cfg.Store.Observe(sample)
	}
	select {
	case m.results <- sample:
		return true
	default:
	}
	select {
	case m.results <- sample:
		return true
	case <-m.stop:
		return false
	}
}

// sleep waits out d in wall time, reporting false when Stop interrupts.
// It is how sessions wait without a live prober — reconnect backoffs,
// and re-measurement gaps while the transport is down — which only
// factory-backed sessions do, and those never run under a Driver.
func (m *Monitor) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-m.stop:
		return false
	}
}

// redial restores a factory-backed session's prober, backing off
// exponentially between consecutive dial failures. It returns true once
// the session has a live prober and false when Stop came first.
// Backoff waits advance the session clock at.
// Each dial runs in its own goroutine and races m.stop, so Stop (and
// therefore Wait) is never held hostage by a factory blocked inside a
// slow dial; a dial that completes after Stop is reaped, its prober
// closed.
func (m *Monitor) redial(s *session, at *time.Duration) bool {
	rc := m.cfg.Reconnect.withDefaults()
	backoff := rc.Backoff
	type dialed struct {
		p   Prober
		err error
	}
	for {
		select {
		case <-m.stop:
			return false
		default:
		}
		ch := make(chan dialed, 1)
		go func() {
			p, err := s.factory()
			ch <- dialed{p, err}
		}()
		var d dialed
		select {
		case d = <-ch:
		case <-m.stop:
			go func() {
				if late := <-ch; late.err == nil {
					if c, ok := late.p.(io.Closer); ok {
						c.Close()
					}
				}
			}()
			return false
		}
		if d.err == nil {
			s.prober = d.p
			return true
		}
		if !m.sleep(backoff) {
			return false
		}
		*at += backoff
		backoff *= 2
		if backoff > rc.MaxBackoff {
			backoff = rc.MaxBackoff
		}
	}
}

// run is one path's session loop: heal the transport if needed, pass
// admission, measure, publish, ask the scheduler for the next gap,
// idle, repeat. Factory-backed sessions never die of transport errors:
// every failed round still publishes its error sample, then the prober
// is closed and re-dialed under the Reconnect policy.
func (m *Monitor) run(s *session) {
	defer m.wg.Done()
	defer s.closeProber()
	defer m.drv.Retire(s.id)
	start := s.resume.Round
	at := s.resume.At
	for round := start; m.cfg.Rounds == 0 || round < start+m.cfg.Rounds; round++ {
		if s.prober == nil && !m.redial(s, &at) {
			return
		}
		release, ok := m.drv.Acquire(s.id, m.adm, m.stop)
		if !ok {
			return
		}
		res, err := Run(s.prober, m.cfg.Config)
		release()

		sample := Sample{Path: s.id, Round: round, At: at, Wall: time.Now(), Result: res, Err: err}
		s.hist.last = schedule.Round{Round: round, At: at, Span: res.Elapsed, Bits: res.Bits, Err: err != nil}
		s.hist.haveLast = true
		at += res.Elapsed
		if !m.publish(sample) {
			return
		}
		if err != nil {
			// On a factory-backed session a failed round condemns the
			// transport: close it now so the next round re-dials.
			s.closeProber()
		}

		if m.cfg.Rounds != 0 && round == start+m.cfg.Rounds-1 {
			return
		}
		// The fleet round boundary: a barrier-based driver parks here
		// until every live sibling has finished its round too. The stop
		// check comes after, so Stop during the barrier is seen as soon
		// as the barrier releases.
		m.drv.RoundEnd(s.id, round)
		select {
		case <-m.stop:
			return
		default:
		}
		gap, ok := m.sched.Next(s.id, &s.hist)
		if !ok {
			return // schedule exhausted: the session ends cleanly
		}
		if gap > 0 {
			if s.prober == nil {
				// Healing: the gap passes in wall time, the re-dial
				// happens at the top of the next round.
				if !m.sleep(gap) {
					return
				}
				at += gap
				continue
			}
			if err := m.drv.Gap(s.id, s.prober, gap); err != nil {
				idleErr := Sample{Path: s.id, Round: round + 1, At: at, Wall: time.Now(), Err: fmt.Errorf("pathload: idle: %w", err)}
				delivered := m.publish(idleErr)
				if s.factory == nil {
					// A prober whose clock failed is not healable here;
					// the session ends (its owner may still be using the
					// prober elsewhere after the monitor is done).
					return
				}
				if !delivered {
					return
				}
				// The idle error consumed round+1's slot; heal and carry
				// on at round+2.
				s.closeProber()
				round++
				continue
			}
			at += gap
		}
	}
}
