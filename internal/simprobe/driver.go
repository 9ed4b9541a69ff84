package simprobe

import (
	"fmt"
	"math"
	"time"

	"repro/internal/netsim"
	"repro/internal/schedule"

	pathload "repro"
)

// A SequencedDriver runs a whole pathload.Monitor fleet on one
// Sequencer: sessions wait for admission parked in virtual time
// (Acquire), park at the fleet round barrier between rounds (EndRound),
// spend their scheduler gaps in virtual time anchored at their own
// round end (IdleUntil), and retire their sequencer seats at
// end-of-life — so a monitored fleet over a shared mesh advances on one
// virtual clock with a scheduling-independent interleave and replays
// byte-for-byte run-to-run, admission policy included.
//
// Wiring: create the Sequencer and its probers, Register each prober
// under its monitor path name, set the driver as MonitorConfig.Driver,
// and AddPath the same probers; mesh.MonitorFleet does all of this.
// There is nothing to start beyond the monitor: the sessions drive the
// sequencer themselves. Install OnRoundBoundary before Start to advance
// fleet scenarios (or snapshot link counters) at round boundaries with
// exclusive simulator access.
//
// The gap anchor is what makes the disjoint-fleet replay argument work:
// a path's round r+1 starts at its *own* round-r end plus its scheduler
// gap, not at the barrier release time, so as long as gaps comfortably
// exceed cross-path round-end skew, a path's timeline is identical
// whether its siblings are present or not.
type SequencedDriver struct {
	seq *Sequencer
	// probers is written by Register, before Start, and only read by
	// the session goroutines afterwards.
	probers map[string]*Prober
}

// NewSequencedDriver creates a driver over seq. Register every path's
// prober before the monitor starts.
func NewSequencedDriver(seq *Sequencer) *SequencedDriver {
	return &SequencedDriver{seq: seq, probers: map[string]*Prober{}}
}

// Register binds a monitor path name to its prober, before the monitor
// starts. The prober must come from the driver's own Sequencer. When
// the monitor wraps the prober (an instrumented test double), register
// the inner prober — the driver needs the seat, not the wrapper.
func (d *SequencedDriver) Register(path string, p *Prober) {
	if p == nil || p.slot.seq != d.seq {
		panic(fmt.Sprintf("simprobe: SequencedDriver.Register(%q) with a prober that is not from the driver's sequencer", path))
	}
	d.probers[path] = p
}

// OnRoundBoundary delegates to the sequencer's round-boundary hook.
func (d *SequencedDriver) OnRoundBoundary(fn func(round int)) { d.seq.OnRoundBoundary(fn) }

// prober returns the registered prober for path, panicking on unknown
// paths — an unregistered session would stall the whole fleet's barrier.
func (d *SequencedDriver) prober(path string) *Prober {
	p := d.probers[path]
	if p == nil {
		panic(fmt.Sprintf("simprobe: SequencedDriver: path %q was never Registered", path))
	}
	return p
}

// RoundEnd records the path's round-end instant — the gap anchor — and
// parks the session at the fleet round barrier. It runs on the session
// goroutine, which still holds the sequencer floor after its last
// measurement section, so reading the virtual clock here is safe.
func (d *SequencedDriver) RoundEnd(path string, round int) {
	p := d.prober(path)
	p.slot.roundEnd = d.seq.sim.Now()
	p.EndRound()
}

// Gap spends the scheduler's re-measurement gap in virtual time,
// anchored at the path's own round end: the session idles until
// roundEnd + gap, however late its siblings cleared the barrier — or
// starts at once when they cleared it later than that, which GapSlack
// reports. The barrier has just released and the clock stands still
// until this session parks, so Now is the release instant.
func (d *SequencedDriver) Gap(path string, _ pathload.Prober, gap time.Duration) error {
	p := d.prober(path)
	anchor := p.slot.roundEnd + netsim.FromDuration(gap)
	p.slot.gapSlack = min(p.slot.gapSlack, anchor-d.seq.sim.Now())
	p.IdleUntil(anchor)
	return nil
}

// GapSlack is the replay argument's margin: the least distance, over
// every gap the registered paths have spent, from a barrier release to
// the gap anchor of the round it released. While it is positive every
// round started at its own anchor; once it is negative some round
// started at the release instead, and that path's timeline depended on
// its siblings. ok is false when no gap has been spent. Call it when the
// monitor is done.
func (d *SequencedDriver) GapSlack() (slack time.Duration, ok bool) {
	least := netsim.Time(math.MaxInt64)
	for _, p := range d.probers {
		least = min(least, p.slot.gapSlack)
	}
	return least.Duration(), least != math.MaxInt64
}

// Acquire waits for admission in virtual time: the session parks in an
// admission wait, with no deadline, whose condition is "stop closed, or
// adm admits the path now". Sessions release while they hold the floor
// (a round just ended), so the waiters are re-polled right after every
// release and admitted lowest seat first — the grant order is a
// function of the fleet's own timeline, not of the host scheduler. If
// every live session waits and none is admissible, the last one to park
// panics rather than spin.
//
// A nil policy admits at once without parking: an extra park per round
// would reorder same-instant setups and break replay of unstaggered
// fleets against their goldens.
func (d *SequencedDriver) Acquire(path string, adm schedule.Admission, stop <-chan struct{}) (func(), bool) {
	if adm == nil {
		return func() {}, true
	}
	var release func()
	sl := d.prober(path).slot
	sl.admit = func() bool {
		select {
		case <-stop:
			return true
		default:
		}
		var ok bool
		release, ok = adm.TryAcquire(path)
		return ok
	}
	sl.park(seqParkedAdmit)
	return release, release != nil
}

// Retire releases the path's sequencer seat so its siblings stop
// waiting for its next move.
func (d *SequencedDriver) Retire(path string) { d.prober(path).Retire() }
