package simprobe

import (
	"math"
	"sync"

	"repro/internal/netsim"
)

// A Sequencer co-schedules the probers of one simulator so their probe
// streams genuinely overlap in virtual time, deterministically.
//
// Serializing siblings with a lock held across each whole stream would
// keep two streams from ever coexisting on the timeline and leave the
// interleaving to the host scheduler. The Sequencer instead splits
// every prober operation into a setup (schedule my packet injections)
// and an await (wake me when they have arrived, or at a deadline) and
// parks the prober goroutine before each. While one prober waits for
// its stream, its siblings get the floor and schedule theirs at the
// same virtual time — the streams queue against each other on shared
// links exactly like cross traffic, which is what fleet
// self-interference experiments need to observe.
//
// There is no scheduler goroutine: the prober that parks (or retires)
// last makes the next decision on its own goroutine, and when nobody
// can proceed it runs the event loop itself until somebody can. A
// Sequencer with a single prober therefore never changes goroutines —
// park, find itself the only candidate, advance the simulator, return —
// which is why New is simply a Sequencer of one.
//
// Determinism comes from two rules. First, exactly one goroutine
// touches the simulator at a time: the prober holding the floor, or
// the last one to park while it decides. Second, a decision is made
// only when every live prober is parked, and it always picks the
// lowest-numbered prober whose turn can proceed, so the global order of
// operations is a pure function of the probers' own measurement logic,
// never of host scheduling. Two runs with identical inputs produce
// identical results, packet IDs included.
//
// Lifecycle: NewSequencer, NewProber for every path (and
// OnRoundBoundary, if wanted), and only then use the probers, one
// goroutine per prober. Nothing moves until every prober has parked for
// the first time, so the roster must be complete before the first one
// is used; NewProber after that panics. Every prober goroutine must end
// by calling Retire — including on measurement error — or its siblings
// wait forever for its next move.
type Sequencer struct {
	sim *netsim.Simulator

	// mu guards the seats' scheduling state and the fields below, up to
	// onRound. It orders the probers' parks before the decision that
	// follows them; it is never contended, since a decision is made only
	// while every other live prober is blocked on its grant.
	mu    sync.Mutex
	slots []*seqSlot
	// started is set by the first park or retirement: the roster is
	// final from then on.
	started bool
	// live counts seats not yet retired, running those of them that are
	// not parked. The seat that takes running to zero decides.
	live, running int
	// pollAdmit is set when admission waiters are worth polling: some
	// prober has held the floor — the only time an admission slot can be
	// released — since the last fruitless poll.
	pollAdmit bool

	// round counts released fleet round barriers (endRound); onRound,
	// when set, fires at each barrier with exclusive simulator access.
	round   int
	onRound func(round int)

	// nextID hands out packet IDs and woken says some seat's armed await
	// was satisfied by the event that just fired. Both are guarded by
	// the floor, not the mutex: only the goroutine allowed to touch the
	// simulator reads or writes them.
	nextID  uint64
	woken   bool
	isWoken func() bool // reads woken; bound once for Sim.RunUntil
}

// seqState tracks where a prober's goroutine is.
type seqState int

const (
	// seqRunning: the goroutine is computing outside the sequencer (or
	// has not started yet). No decision is made until it parks.
	seqRunning seqState = iota
	// seqParkedSection: parked at the top of a section, waiting for the
	// floor to run its setup.
	seqParkedSection
	// seqParkedAwait: setup done; waiting for its wake or its deadline.
	seqParkedAwait
	// seqParkedAdmit: parked in an admission wait. Only its admit
	// condition ends it — there is no deadline to advance toward — and
	// the condition may take the slot it grants as a side effect. It is
	// polled after a prober has run, not after every event, so it may
	// only depend on what probers do while they hold the floor
	// (releasing a slot) or on a signal that can wait for the next grant
	// (a stop channel).
	seqParkedAdmit
	// seqParkedRound: parked at the fleet round barrier (endRound),
	// waiting for every live sibling to finish its round too.
	seqParkedRound
	// seqRetired: the goroutine is done; never counted again.
	seqRetired
)

// A seqSlot is one prober's seat in the deterministic rotation.
type seqSlot struct {
	seq   *Sequencer
	state seqState
	// What the seat waits for, set by its own goroutine before it parks:
	// deadline ends a seqParkedAwait, armed says wake may end it earlier,
	// admit is the seqParkedAdmit condition. woken says wake was called.
	deadline     netsim.Time
	armed, woken bool
	admit        func() bool
	// grant delivers the floor from the sibling that decided. One
	// buffered token: the decider sends and moves on to block on its
	// own.
	grant chan struct{}
	// roundEnd is the SequencedDriver's gap anchor and gapSlack the
	// least distance from a barrier release to the anchored start that
	// followed it: written and read only by the seat's own session
	// while it is unparked.
	roundEnd, gapSlack netsim.Time
}

// NewSequencer wraps sim for deterministic multi-prober co-scheduling.
// The simulator may be warmed up directly before the first prober is
// used; from then on it must only be touched through the probers (or
// the round-boundary hook).
func NewSequencer(sim *netsim.Simulator) *Sequencer {
	s := &Sequencer{sim: sim}
	s.isWoken = func() bool { return s.woken }
	return s
}

// NewProber creates a co-scheduled prober that injects at the head of
// route and measures at its tail; reverseDelay models the uncongested
// return path. Probers must all be created before the first one is
// used; their creation order fixes the deterministic turn order.
func (s *Sequencer) NewProber(route []*netsim.Link, reverseDelay netsim.Time) *Prober {
	if len(route) == 0 {
		panic("simprobe: empty route")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("simprobe: Sequencer.NewProber after a sibling prober was first used")
	}
	sl := &seqSlot{seq: s, state: seqRunning, grant: make(chan struct{}, 1), gapSlack: math.MaxInt64}
	s.slots = append(s.slots, sl)
	s.live++
	s.running++
	p := &Prober{
		route:        route,
		ReverseDelay: reverseDelay,
		LossTimeout:  200 * netsim.Millisecond,
		slot:         sl,
		st:           stream{sim: s.sim, route: route, seat: sl},
	}
	p.st.fireFn, p.st.arriveFn = p.st.fire, p.st.arrive
	return p
}

// Retire releases the prober's seat, letting its siblings stop waiting
// for its next move. It must be called when the prober's goroutine is
// done measuring, from that goroutine — deferring it right after the
// goroutine starts covers error exits too. A prober that has no
// siblings (New) need not be retired.
func (p *Prober) Retire() {
	sl := p.slot
	s := sl.seq
	s.mu.Lock()
	if sl.state != seqRetired {
		sl.state = seqRetired
		s.live--
		s.yield(nil)
	}
	s.mu.Unlock()
}

// OnRoundBoundary installs the fleet round-boundary hook: fn fires
// every time all live probers have parked at the endRound barrier, with
// round counting released barriers from 1, on the goroutine of whichever
// prober parked last. At that moment no prober holds the floor and no
// await is pending, so fn has exclusive simulator access — it may
// advance the clock (e.g. settle a scenario epoch change with RunFor)
// or read link counters safely. It must be installed before the first
// prober is used.
func (s *Sequencer) OnRoundBoundary(fn func(round int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("simprobe: Sequencer.OnRoundBoundary after a prober was first used")
	}
	s.onRound = fn
}

// endRound parks the prober at the fleet round barrier: the call
// returns only when every live sibling has either called endRound too
// or retired, so a whole monitored fleet advances round-by-round on one
// virtual clock. Without siblings it returns at once.
func (p *Prober) endRound() {
	p.slot.park(seqParkedRound) // until every live sibling reached the barrier
}

// idleUntil advances virtual time to the absolute instant t, or does
// nothing when t has already passed. Unlike Idle's relative gap, the
// deadline is anchored by the caller — a monitor driver anchors each
// path's next round at its own round end, which keeps a path's timeline
// independent of when its siblings cleared the round barrier.
func (p *Prober) idleUntil(t netsim.Time) {
	if now := p.begin().Now(); t < now {
		t = now
	}
	p.await(t, false)
}

// reservePktIDs allocates n consecutive packet IDs and returns the
// first. Callers hold the floor.
func (s *Sequencer) reservePktIDs(n int) uint64 {
	first := s.nextID + 1
	s.nextID += uint64(n)
	return first
}

// begin and await bracket a section. begin parks until the floor is the
// prober's and returns the simulator for the section's setup, which
// runs with exclusive access and only schedules future events, never
// fires any. await ends the setup and waits until deadline — or, when
// armed, until wake is called from an event. When await returns this
// goroutine still holds the floor, and keeps it until its next park, so
// the caller may read what the simulation produced — nobody advances
// the clock while a prober is unparked.
func (p *Prober) begin() *netsim.Simulator {
	p.slot.park(seqParkedSection) // until the floor is ours: schedule
	return p.slot.seq.sim
}

func (p *Prober) await(deadline netsim.Time, armed bool) {
	sl := p.slot
	sl.deadline, sl.armed = deadline, armed
	sl.park(seqParkedAwait) // until woken or the deadline is reached
}

// wake ends the seat's armed await at the event now firing. It runs
// inside the event loop, so the floor guards it.
func (sl *seqSlot) wake() {
	sl.woken = true
	sl.seq.woken = true
}

// park records where the prober's goroutine waits and blocks until a
// decision grants it the floor — its own decision, without changing
// goroutines, when it is the last to park and the first in line.
func (sl *seqSlot) park(state seqState) {
	s := sl.seq
	s.mu.Lock()
	if sl.state == seqRetired {
		s.mu.Unlock()
		panic("simprobe: prober used after Retire")
	}
	sl.state, sl.woken = state, false
	mine := s.yield(sl)
	s.mu.Unlock()
	if !mine {
		<-sl.grant
	}
}

// yield gives up the floor: the calling seat (nil for one that just
// retired) has stopped running. If siblings are still running there is
// nothing to do — the last of them will decide. Otherwise the picture
// is complete and this goroutine decides who runs next. It reports
// whether that is self. The goroutine held the floor until now, so
// anything it released may admit an admission waiter. Called, and
// returns, with mu held; it lets go of it around caller code (events,
// the round hook).
func (s *Sequencer) yield(self *seqSlot) (mine bool) {
	s.started = true
	s.pollAdmit = true
	s.running--
	if s.running > 0 || s.live == 0 {
		return false
	}
	for {
		// Deterministic choice. Pending setups first (they only schedule
		// future injections, never fire events, so serving them before
		// ready awaits is safe), then the first satisfied await; both by
		// lowest slot number.
		if sl := s.lowestParkedSection(); sl != nil {
			return s.grant(sl, self)
		}
		if sl := s.firstReadyAwait(); sl != nil {
			return s.grant(sl, self)
		}
		if s.pollAdmit {
			if sl := s.firstAdmitted(); sl != nil {
				return s.grant(sl, self)
			}
			s.pollAdmit = false
		}
		// No section or await can proceed. If every live prober sits at
		// the round barrier, the fleet round is complete.
		if s.allParkedRound() {
			return s.releaseRound(self)
		}
		// Everyone is waiting and nobody is ready: advance the simulator
		// to the nearest deadline, firing every event up to and at it —
		// or, when some await can end early, up to the event that wakes
		// one. Time-only waits skip the per-event check.
		dl, armed, ok := s.minDeadline()
		if !ok {
			// Every live slot sits at the round barrier or in an
			// admission wait, and no waiter is admissible. Nobody holds
			// the floor, so nobody can release: the policy never admits,
			// or a release was lost. Passing time cannot help; fail
			// loudly.
			s.mu.Unlock()
			panic("simprobe: sequencer stalled with no deadlines: every live session waits for admission and none is admissible")
		}
		s.mu.Unlock() // events are caller code
		if armed {
			s.woken = false
			s.sim.RunUntil(s.isWoken, dl)
		} else {
			s.sim.Run(dl)
		}
		s.mu.Lock()
	}
}

// grant hands sl the floor and reports whether sl is self, who then
// simply returns from park. The token goes into sl's buffer, so the
// deciding goroutine moves on (to block on its own grant) and sl runs
// next.
func (s *Sequencer) grant(sl, self *seqSlot) bool {
	sl.state = seqRunning
	s.running++
	if sl == self {
		return true
	}
	sl.grant <- struct{}{}
	return false
}

// allParkedRound reports whether every live prober is parked at the
// round barrier.
func (s *Sequencer) allParkedRound() bool {
	for _, sl := range s.slots {
		if sl.state != seqRetired && sl.state != seqParkedRound {
			return false
		}
	}
	return true
}

// releaseRound fires the round-boundary hook and releases every
// barrier-parked prober. The hook runs outside the mutex (it is caller
// code), but nothing can touch the simulator until the grants below, so
// its simulator access is exclusive.
func (s *Sequencer) releaseRound(self *seqSlot) (mine bool) {
	s.round++
	if hook := s.onRound; hook != nil {
		round := s.round
		s.mu.Unlock()
		hook(round)
		s.mu.Lock()
	}
	for _, sl := range s.slots {
		if sl.state == seqParkedRound && s.grant(sl, self) {
			mine = true
		}
	}
	return mine
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

// firstReadyAwait returns the lowest-numbered waiting slot that was
// woken or whose deadline has passed, or nil.
func (s *Sequencer) firstReadyAwait() *seqSlot {
	now := s.sim.Now()
	for _, sl := range s.slots {
		if sl.state == seqParkedAwait && (sl.woken || now >= sl.deadline) {
			return sl
		}
	}
	return nil
}

// firstAdmitted returns the lowest-numbered admission waiter whose
// condition holds, or nil (TestAdmissionGrantsLowestSeatFirst). The
// condition takes the slot it reports, so the caller must grant the
// slot returned here.
func (s *Sequencer) firstAdmitted() *seqSlot {
	for _, sl := range s.slots {
		if sl.state == seqParkedAdmit && sl.admit() {
			return sl
		}
	}
	return nil
}

// minDeadline returns the earliest deadline among waiting slots and
// whether any of them armed an early wake.
func (s *Sequencer) minDeadline() (dl netsim.Time, armed, ok bool) {
	for _, sl := range s.slots {
		if sl.state != seqParkedAwait {
			continue
		}
		if !ok || sl.deadline < dl {
			dl, ok = sl.deadline, true
		}
		armed = armed || sl.armed
	}
	return dl, armed, ok
}
