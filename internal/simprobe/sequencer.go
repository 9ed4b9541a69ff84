package simprobe

import (
	"sync"

	"repro/internal/netsim"
)

// A Sequencer co-schedules several probers over one simulator so their
// probe streams genuinely overlap in virtual time, deterministically.
//
// Serializing siblings with a lock held across each whole stream would
// keep two streams from ever coexisting on the timeline and leave the
// interleaving to the host scheduler. The Sequencer instead splits
// every prober operation into a setup (schedule my packet injections)
// and an await (wake me when they have arrived, or at a deadline), parks
// the prober goroutine between the two, and advances the event loop
// itself. While one prober waits for its stream, its siblings get the
// floor and schedule theirs at the same virtual time — the streams
// queue against each other on shared links exactly like cross traffic,
// which is what fleet self-interference experiments need to observe.
//
// Determinism comes from two rules. First, exactly one goroutine — a
// prober holding the floor, or the driver — touches the simulator at a
// time, and the floor only changes hands through Drive. Second, Drive
// acts only when every live prober is parked, and then always picks the
// lowest-numbered prober whose turn can proceed, so the global order of
// operations is a pure function of the probers' own measurement logic,
// never of host scheduling. Two runs with identical inputs produce
// identical results, packet IDs included.
//
// Lifecycle: NewSequencer, NewProber for every path, start one
// goroutine per prober (each prober stays single-goroutine), then
// Drive from the owner. Every prober goroutine must end by calling
// Retire — including on measurement error — or Drive waits forever for
// its next move; Drive returns once all probers have retired.
type Sequencer struct {
	sim *netsim.Simulator

	mu      sync.Mutex
	changed *sync.Cond
	slots   []*seqSlot
	driving bool
	// pollAdmit is set when admission waiters are worth polling: some
	// prober has held the floor — the only time an admission slot can be
	// released — since the last fruitless poll.
	pollAdmit bool

	// round counts released fleet round barriers (EndRound); onRound,
	// when set, fires at each barrier with exclusive simulator access.
	round   int
	onRound func(round int)

	// nextID hands out packet IDs; guarded by the floor, not the mutex
	// (only the goroutine holding the floor allocates).
	nextID uint64
}

// seqState tracks where a sequenced prober's goroutine is.
type seqState int

const (
	// seqRunning: the goroutine is computing outside the sequencer (or
	// has not started yet). The driver must wait for it to park.
	seqRunning seqState = iota
	// seqParkedSection: parked at the top of a section, waiting for the
	// floor to run its setup.
	seqParkedSection
	// seqParkedAwait: setup done; waiting for its condition or deadline.
	seqParkedAwait
	// seqParkedAdmit: parked in an admission wait. Only its condition
	// ends it — there is no deadline to advance toward — and the
	// condition may take the slot it grants as a side effect. It is
	// polled after a prober has run, not after every event, so it may
	// only depend on what probers do while they hold the floor
	// (releasing a slot) or on a signal that can wait for the next grant
	// (a stop channel).
	seqParkedAdmit
	// seqParkedRound: parked at the fleet round barrier (EndRound),
	// waiting for every live sibling to finish its round too.
	seqParkedRound
	// seqRetired: the goroutine is done; never counted again.
	seqRetired
)

// A seqSlot is one prober's seat in the deterministic rotation.
type seqSlot struct {
	seq      *Sequencer
	id       int
	state    seqState
	cond     func() bool // nil for pure time waits
	deadline netsim.Time
	grant    chan struct{}
}

// NewSequencer wraps sim for deterministic multi-prober co-scheduling.
// The simulator may be warmed up directly before the first Drive; once
// Drive runs it must only be touched through sequenced probers.
func NewSequencer(sim *netsim.Simulator) *Sequencer {
	s := &Sequencer{sim: sim}
	s.changed = sync.NewCond(&s.mu)
	return s
}

// NewProber creates a co-scheduled prober measuring over route. Probers
// must all be created before Drive; their creation order fixes the
// deterministic turn order.
func (s *Sequencer) NewProber(route []*netsim.Link, reverseDelay netsim.Time) *Prober {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.driving {
		panic("simprobe: Sequencer.NewProber after Drive started")
	}
	p := New(s.sim, route, reverseDelay)
	sl := &seqSlot{seq: s, id: len(s.slots), state: seqRunning, grant: make(chan struct{})}
	s.slots = append(s.slots, sl)
	p.slot = sl
	return p
}

// Retire releases a sequenced prober's seat, letting Drive stop waiting
// for its next move. It must be called exactly once per sequenced
// prober, when its goroutine is done measuring — deferring it right
// after the goroutine starts covers error exits too. Retire on a
// non-sequenced prober is a no-op, so fleet code need not distinguish.
func (p *Prober) Retire() {
	if p.slot == nil {
		return
	}
	s := p.slot.seq
	s.mu.Lock()
	defer s.mu.Unlock()
	p.slot.state = seqRetired
	s.pollAdmit = true
	s.changed.Broadcast()
}

// OnRoundBoundary installs the fleet round-boundary hook: fn fires
// inside Drive every time all live probers have parked at the EndRound
// barrier, with round counting released barriers from 1. At that moment
// no prober holds the floor and no await is pending, so fn has
// exclusive simulator access — it may advance the clock (e.g. settle a
// scenario epoch change with RunFor) or read link counters safely. It
// must be installed before Drive.
func (s *Sequencer) OnRoundBoundary(fn func(round int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.driving {
		panic("simprobe: Sequencer.OnRoundBoundary after Drive started")
	}
	s.onRound = fn
}

// EndRound parks a sequenced prober at the fleet round barrier: the
// call returns only when every live sibling has either called EndRound
// too or retired, so a whole monitored fleet advances round-by-round on
// one virtual clock. On a non-sequenced prober it is a no-op, like
// Retire.
func (p *Prober) EndRound() {
	if p.slot == nil {
		return
	}
	p.slot.park(seqParkedRound, nil, 0) // until every live sibling reached the barrier
}

// IdleUntil advances virtual time to the absolute instant t, or does
// nothing when t has already passed. Unlike Idle's relative gap, the
// deadline is anchored by the caller — a monitor driver anchors each
// path's next round at its own round end, which keeps a sequenced
// path's timeline independent of when its siblings cleared the round
// barrier.
func (p *Prober) IdleUntil(t netsim.Time) {
	p.section(func(sim *netsim.Simulator) (func() bool, netsim.Time) {
		if now := sim.Now(); t < now {
			return nil, now
		}
		return nil, t
	}, nil)
}

// nextPktID allocates a packet ID. Callers hold the floor.
func (s *Sequencer) nextPktID() uint64 {
	s.nextID++
	return s.nextID
}

// section is the sequenced engine: park, run setup when granted the
// floor, park again, run collect when the await is granted. Between the
// final grant and the next park this goroutine keeps the floor, so
// collect and any caller code up to the next section may read
// simulation results safely — the driver never advances the clock while
// a prober is unparked.
func (sl *seqSlot) section(setup func(sim *netsim.Simulator) (cond func() bool, deadline netsim.Time), collect func()) {
	sl.park(seqParkedSection, nil, 0) // until the floor is ours: schedule
	cond, deadline := setup(sl.seq.sim)
	sl.park(seqParkedAwait, cond, deadline) // until the condition is met or the deadline reached
	if collect != nil {
		collect()
	}
}

// park records where the prober's goroutine waits and blocks until
// Drive grants it. The goroutine held the floor until now, so anything
// it released may admit an admission waiter.
func (sl *seqSlot) park(state seqState, cond func() bool, deadline netsim.Time) {
	s := sl.seq
	s.mu.Lock()
	if sl.state == seqRetired {
		s.mu.Unlock()
		panic("simprobe: sequenced prober used after Retire")
	}
	sl.state, sl.cond, sl.deadline = state, cond, deadline
	s.pollAdmit = true
	s.changed.Broadcast()
	s.mu.Unlock()
	<-sl.grant
}

// Drive runs the co-scheduling loop until every prober has retired. It
// blocks the calling goroutine; probers run in their own goroutines and
// are granted the floor one at a time.
func (s *Sequencer) Drive() {
	s.mu.Lock()
	if s.driving {
		s.mu.Unlock()
		panic("simprobe: Sequencer.Drive called twice")
	}
	s.driving = true
	for {
		// Rule one: act only on a full picture — every live prober
		// parked, none mid-computation.
		for s.anyRunning() {
			s.changed.Wait()
		}
		if s.allRetired() {
			s.mu.Unlock()
			return
		}
		// Rule two: deterministic choice. Pending setups first (they
		// only schedule future injections, never fire events, so
		// serving them before ready awaits is safe), then the first
		// satisfied await; both by lowest slot number.
		if sl := s.lowestParkedSection(); sl != nil {
			s.grantLocked(sl)
			continue
		}
		if sl := s.firstReadyAwait(); sl != nil {
			s.grantLocked(sl)
			continue
		}
		if s.pollAdmit {
			if sl := s.firstAdmitted(); sl != nil {
				s.grantLocked(sl)
				continue
			}
			s.pollAdmit = false
		}
		// No section or await can proceed. If every live prober sits at
		// the round barrier, the fleet round is complete: fire the
		// boundary hook (exclusive simulator access — nothing holds the
		// floor, nothing awaits) and release them all.
		if s.allParkedRound() {
			s.releaseRoundLocked()
			continue
		}
		// Everyone is waiting and nobody is ready: advance the
		// simulator toward the nearest deadline, one event at a time so
		// conditions are rechecked at every state change.
		dl, ok := s.minDeadline()
		if !ok {
			// Every live slot sits at the round barrier or in an
			// admission wait, and no waiter is admissible. Nobody holds
			// the floor, so nobody can release: the policy never admits,
			// or a release was lost. Passing time cannot help; fail
			// loudly.
			s.mu.Unlock()
			panic("simprobe: sequencer stalled with no deadlines: every live session waits for admission and none is admissible")
		}
		s.mu.Unlock()
		if !s.sim.Step(dl) {
			s.sim.Run(dl) // no events before dl: just pass the time
		}
		s.mu.Lock()
	}
}

// grantLocked hands sl the floor and reacquires the lock once the
// handoff is done. The send must happen outside the mutex: the prober
// needs no lock to receive, but holding it here could deadlock with a
// sibling trying to park.
func (s *Sequencer) grantLocked(sl *seqSlot) {
	sl.state = seqRunning
	s.mu.Unlock()
	sl.grant <- struct{}{}
	s.mu.Lock()
}

// allParkedRound reports whether at least one live prober exists and
// every live prober is parked at the round barrier.
func (s *Sequencer) allParkedRound() bool {
	live := 0
	for _, sl := range s.slots {
		switch sl.state {
		case seqRetired:
		case seqParkedRound:
			live++
		default:
			return false
		}
	}
	return live > 0
}

// releaseRoundLocked fires the round-boundary hook and releases every
// barrier-parked prober. Like grantLocked, the hook call and the grant
// sends happen outside the mutex; the probers cannot touch the
// simulator until their grants arrive, so the hook's simulator access
// is exclusive.
func (s *Sequencer) releaseRoundLocked() {
	s.round++
	round := s.round
	hook := s.onRound
	var waiting []*seqSlot
	for _, sl := range s.slots {
		if sl.state == seqParkedRound {
			sl.state = seqRunning
			waiting = append(waiting, sl)
		}
	}
	s.mu.Unlock()
	if hook != nil {
		hook(round)
	}
	for _, sl := range waiting {
		sl.grant <- struct{}{}
	}
	s.mu.Lock()
}

// anyRunning reports whether some live prober holds or may take the
// floor outside the sequencer's control.
func (s *Sequencer) anyRunning() bool {
	for _, sl := range s.slots {
		if sl.state == seqRunning {
			return true
		}
	}
	return false
}

// allRetired reports whether every prober is done.
func (s *Sequencer) allRetired() bool {
	for _, sl := range s.slots {
		if sl.state != seqRetired {
			return false
		}
	}
	return true
}

// lowestParkedSection returns the lowest-numbered slot waiting to run a
// setup, or nil.
func (s *Sequencer) lowestParkedSection() *seqSlot {
	for _, sl := range s.slots {
		if sl.state == seqParkedSection {
			return sl
		}
	}
	return nil
}

// firstReadyAwait returns the lowest-numbered waiting slot whose
// condition holds or whose deadline has passed, or nil. Conditions read
// only state owned by their (parked) prober, so evaluating them here is
// safe.
func (s *Sequencer) firstReadyAwait() *seqSlot {
	now := s.sim.Now()
	for _, sl := range s.slots {
		if sl.state != seqParkedAwait {
			continue
		}
		if now >= sl.deadline || (sl.cond != nil && sl.cond()) {
			return sl
		}
	}
	return nil
}

// firstAdmitted returns the lowest-numbered admission waiter whose
// condition holds, or nil. The condition takes the slot it reports, so
// the caller must grant the slot returned here.
func (s *Sequencer) firstAdmitted() *seqSlot {
	for _, sl := range s.slots {
		if sl.state == seqParkedAdmit && sl.cond() {
			return sl
		}
	}
	return nil
}

// minDeadline returns the earliest deadline among waiting slots.
func (s *Sequencer) minDeadline() (netsim.Time, bool) {
	var dl netsim.Time
	found := false
	for _, sl := range s.slots {
		if sl.state != seqParkedAwait {
			continue
		}
		if !found || sl.deadline < dl {
			dl, found = sl.deadline, true
		}
	}
	return dl, found
}
