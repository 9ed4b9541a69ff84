// Package schedule decides when a monitored path measures next. It is
// the policy point the Monitor's session loop delegates to: after every
// finished round a session asks its Scheduler for the idle gap before
// the path's next measurement, and asks its Admission policy for
// permission to start probing.
//
// The paper motivates both halves. §VI's dynamics study presupposes
// long-lived monitoring, and re-measuring every path on one fixed
// fleet-wide interval is the crudest possible schedule; §VI-B's
// variability metric ρ tells a scheduler which paths are quiet (probe
// rarely) and which are volatile (probe often). §VIII bounds how
// intrusive monitoring may be, which at fleet scale is a bound on
// aggregate probe bit-rate — a budget, not a concurrency cap. And the
// contention experiments show co-probing paths that share a tight link
// bias each other's estimates by several Mb/s, so admission should
// stagger exactly those sessions.
//
// Three composable Schedulers ship here: Fixed (the Monitor's original
// jittered interval, byte-identical schedules), Adaptive (per-path gaps
// scaled by recent windowed ρ read back from the path's sample
// history), and Budgeted (a virtual-time token bucket bounding
// aggregate probe bit-rate fleet-wide), plus Until (a virtual-time
// horizon). Two Admission policies: Workers (the original bounded
// worker pool) and Stagger (conflict-graph admission over the mesh's
// link-sharing graph).
//
// Everything here is deterministic given deterministic feedback: Fixed
// derives per-path jitter streams from Seed ⊕ hash(path), Adaptive and
// Budgeted consult only the path's own history, so fleet schedules are
// reproducible run-to-run regardless of goroutine interleaving — the
// repository's determinism contract extended to scheduling.
package schedule

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// A Round is one finished measurement as the scheduler sees it: when it
// started on the path-local clock, how long it probed, what it cost,
// and whether it failed. Path-local virtual time makes every decision
// derived from it reproducible under the simulator.
type Round struct {
	// Round counts the path's measurements from 0.
	Round int
	// At is the path-local time offset of the measurement start; Span
	// is the probing time it consumed. At+Span is when the scheduler's
	// gap begins.
	At, Span time.Duration
	// Bits is the probe load the round injected (pathload.Result.Bits);
	// reported even for failed rounds.
	Bits float64
	// Err reports whether the round failed.
	Err bool
}

// End returns the path-local end of the round.
func (r Round) End() time.Duration { return r.At + r.Span }

// A History answers a Scheduler's feedback queries about one path's
// measurement past. The Monitor supplies one per session: LastRound
// from the session's own state, RelVar from the configured sample store
// when it can answer (internal/tsstore.Store is the canonical
// implementation).
type History interface {
	// LastRound returns the path's most recent finished round; ok is
	// false before the first round completes.
	LastRound(path string) (r Round, ok bool)
	// RelVar returns the windowed relative variation ρ (Eq. 12) of the
	// path's series over the trailing window of path-local time (the
	// whole retained series when window <= 0). ok is false when no
	// feedback is available — unknown path, no successful rounds, or no
	// store wired in.
	RelVar(path string, window time.Duration) (rho float64, ok bool)
}

// A VarSource answers the windowed-ρ half of History. tsstore.Store
// implements it; the Monitor adapts any configured SampleSink that does
// into each session's History.
type VarSource interface {
	RelVar(path string, window time.Duration) (rho float64, ok bool)
}

// A Scheduler decides each path's re-measurement gap. Next is called by
// the path's session after every finished round that is not the
// session's last: the returned gap is spent in the prober's Idle before
// the next round. Returning ok == false ends the session cleanly — the
// schedule is exhausted.
//
// Next is called concurrently from every session goroutine of a
// Monitor; implementations must be safe for concurrent use. To keep
// fleet runs reproducible they should derive per-path decisions only
// from the path's identity and its own history, never from cross-path
// call order.
type Scheduler interface {
	Next(path string, h History) (gap time.Duration, ok bool)
}

// A FleetBinder is a Scheduler that wants the fleet roster before
// scheduling starts. The Monitor calls Bind exactly once at Start with
// every registered path; Budgeted uses it to split the aggregate budget
// into deterministic per-path shares.
type FleetBinder interface {
	Bind(paths []string)
}

// Fixed reproduces the Monitor's original schedule: a target Interval
// between one path's consecutive measurements, spread uniformly over
// [(1−Jitter)·Interval, (1+Jitter)·Interval] by a per-path random
// stream derived from Seed ⊕ FNV-1a(path). A Monitor with a nil
// Scheduler uses Fixed with its Interval, Jitter, and Seed fields —
// byte-identical to the pre-scheduler session loop, which is pinned by
// TestFixedMatchesLegacyMonitorGaps.
type Fixed struct {
	// Interval is the target gap; <= 0 re-measures immediately.
	Interval time.Duration
	// Jitter in [0, 1] spreads each gap; 0 disables randomization (and
	// leaves the per-path stream untouched, preserving schedules).
	Jitter float64
	// Seed derives the per-path jitter streams; 0 selects 1, matching
	// MonitorConfig.Seed's default.
	Seed int64

	mu   sync.Mutex
	rngs map[string]*rand.Rand
}

// Next returns the path's next jittered gap. It consumes one value of
// the path's jitter stream exactly when Interval > 0 and Jitter > 0 —
// the same draws, in the same order, as the original monitor loop.
func (f *Fixed) Next(path string, _ History) (time.Duration, bool) {
	if f.Interval <= 0 {
		return 0, true
	}
	if f.Jitter == 0 {
		return f.Interval, true
	}
	f.mu.Lock()
	rng := f.rngs[path]
	if rng == nil {
		if f.rngs == nil {
			f.rngs = map[string]*rand.Rand{}
		}
		rng = rand.New(rand.NewSource(f.pathSeed(path)))
		f.rngs[path] = rng
	}
	u := rng.Float64()
	f.mu.Unlock()
	return time.Duration((1 + f.Jitter*(2*u-1)) * float64(f.Interval)), true
}

// pathSeed derives the path's jitter-stream seed: Seed ⊕ FNV-1a(path),
// so adding a path never reshuffles the others' schedules.
func (f *Fixed) pathSeed(path string) int64 {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	h := fnv.New64a()
	h.Write([]byte(path))
	return seed ^ int64(h.Sum64())
}

// Adaptive scales each path's gap by its recent variability: quiet
// paths (low windowed ρ) probe rarely, volatile paths often (§VI-B).
// The gap is Base·(Ref/ρ) clamped to [Min, Max], where ρ is the
// windowed relative variation of the path's series over the trailing
// Window, read back from the History — the tsstore feedback edge. With
// no feedback (no store, or no successful rounds yet) the gap is Base.
//
// Adaptive is stateless and deterministic: the gap is a pure function
// of the path's own stored series, so adaptive fleets replay
// byte-identically whenever the underlying measurements do.
type Adaptive struct {
	// Base is the gap at ρ == Ref; required > 0.
	Base time.Duration
	// Min and Max clamp the scaled gap. Zero values select Base/4 and
	// 4·Base.
	Min, Max time.Duration
	// Window is the trailing span of path-local time the ρ query
	// covers; <= 0 uses the whole retained series.
	Window time.Duration
	// Ref is the ρ at which the gap equals Base; 0 selects
	// DefaultRefRelVar.
	Ref float64
}

// DefaultRefRelVar is the windowed ρ at which Adaptive probes at its
// Base gap: the paper's Figs 11–14 place typical per-measurement ρ
// around 0.2–0.4, so 0.3 centers the adaptive range on ordinary paths.
const DefaultRefRelVar = 0.3

// Bounds returns the effective [Min, Max] clamp.
func (a *Adaptive) Bounds() (min, max time.Duration) {
	min, max = a.Min, a.Max
	if min == 0 {
		min = a.Base / 4
	}
	if max == 0 {
		max = 4 * a.Base
	}
	return min, max
}

// Next returns the ρ-scaled gap for the path.
func (a *Adaptive) Next(path string, h History) (time.Duration, bool) {
	min, max := a.Bounds()
	rho, ok := h.RelVar(path, a.Window)
	if !ok {
		return clampGap(a.Base, min, max), true
	}
	ref := a.Ref
	if ref == 0 {
		ref = DefaultRefRelVar
	}
	if rho <= 0 {
		// A perfectly steady series: probe as rarely as allowed.
		return max, true
	}
	return clampGap(time.Duration(float64(a.Base)*ref/rho), min, max), true
}

// clampGap bounds gap to [min, max].
func clampGap(gap, min, max time.Duration) time.Duration {
	if gap < min {
		return min
	}
	if gap > max {
		return max
	}
	return gap
}

// Budgeted bounds the fleet's aggregate probe bit-rate with a
// virtual-time token bucket (§VIII at scale): tokens accrue at Rate
// bits per virtual second across the fleet, every finished round is
// charged its Result.Bits, and a path in deficit stretches its gap
// until the debt is repaid. The Inner scheduler proposes the gap;
// Budgeted only ever lengthens it.
//
// To keep fleet runs reproducible the bucket is split at Bind time into
// equal per-path shares fed at Rate/paths: each path's admission then
// depends only on its own deterministic history, never on cross-path
// call order, while the aggregate stays below Rate in every
// virtual-time window (the sum of the per-path bounds; each path can
// additionally borrow at most Burst + one round's bits, the bucket
// depth plus the round in flight when the bucket empties).
//
// A path's bucket starts accruing at its first charged round's start
// (Round.At), so a session resumed mid-clock pays for its first round
// exactly as a fresh one does. For a fresh AddPath session that start
// is 0; a factory path whose first dial backed off starts accruing
// after the backoff, not during it.
//
// Bind is what arms the bucket: the Monitor calls it on the scheduler
// it is configured with, and wrappers shipped here (Until) forward it.
// A custom wrapper that hides the FleetBinder interface leaves the
// bucket unbound, and an unbound Budgeted passes the inner schedule
// through with NO rate enforcement — when in doubt, call Bind
// yourself before Start.
type Budgeted struct {
	// Inner proposes the base gap; required (use Fixed or Adaptive).
	Inner Scheduler
	// Rate is the aggregate probe budget in bits per virtual second;
	// required > 0.
	Rate float64
	// Burst is each path's bucket depth in bits: how much unused credit
	// a path may bank while idling, and therefore how far it can run
	// ahead of its share before stretching gaps. 0 — the default, and
	// the strictest setting — forfeits unused credit: every round's
	// cost is then fully repaid by dedicated idle before the next round
	// starts.
	Burst float64

	mu      sync.Mutex
	share   float64 // bits per virtual second per path, set by Bind
	buckets map[string]*bucket
	index   map[string]int // Bind order, for repayment phase stagger
}

// bucket is one path's token-bucket state on its own virtual clock.
type bucket struct {
	credit  float64 // bits available; negative = debt to repay
	lastEnd time.Duration
	phased  bool // the one-time phase stagger has been applied
}

// Bind splits Rate into equal per-path shares (and forwards the roster
// to a binding Inner). The Monitor calls it at Start; calling it again
// rebinds (and resets) the bucket state.
func (b *Budgeted) Bind(paths []string) {
	if inner, ok := b.Inner.(FleetBinder); ok {
		inner.Bind(paths)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(paths) == 0 {
		return
	}
	b.share = b.Rate / float64(len(paths))
	b.buckets = make(map[string]*bucket, len(paths))
	b.index = make(map[string]int, len(paths))
	for i, p := range paths {
		b.buckets[p] = &bucket{}
		b.index[p] = i
	}
}

// Next charges the finished round against the path's bucket and
// stretches the Inner gap while the bucket is in deficit.
func (b *Budgeted) Next(path string, h History) (time.Duration, bool) {
	gap, ok := b.Inner.Next(path, h)
	if !ok {
		return 0, false
	}
	r, haveRound := h.LastRound(path)
	if !haveRound {
		return gap, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.share <= 0 {
		// Unbound (Bind never ran): pass the inner schedule through.
		return gap, true
	}
	bk := b.buckets[path]
	if bk == nil {
		// A path registered after Bind still gets a share-fed bucket.
		bk = &bucket{}
		b.buckets[path] = bk
	}
	if !bk.phased {
		bk.lastEnd = r.At // first charge: accrue from this round's start, not 0
	}
	// Accrue tokens for the virtual time since the last accounting,
	// charge the finished round, then forfeit any credit beyond Burst:
	// a round self-funds from the share accrued over its own span, but
	// a path cannot bank more than Burst ahead.
	if end := r.End(); end > bk.lastEnd {
		bk.credit += b.share * (end - bk.lastEnd).Seconds()
		bk.lastEnd = end
	}
	bk.credit -= r.Bits
	if bk.credit > b.Burst {
		bk.credit = b.Burst
	}
	if !bk.phased {
		// One-time repayment phase stagger, derived from Bind order: a
		// fleet whose sessions all start together would otherwise
		// synchronize their repayment cycles and bunch the aggregate
		// load into pulses. Offsetting path i's first repayment by
		// i/paths of one round's repayment time spreads the cycles
		// deterministically (the monitor-jitter rationale, §VIII).
		bk.phased = true
		if n := len(b.index); n > 0 {
			bk.credit -= r.Bits * float64(b.index[path]) / float64(n)
		}
	}
	if bk.credit < 0 {
		// Stretch the gap until the debt is repaid: tokens accrued over
		// the idle cover the deficit before the next round may start.
		repay := time.Duration(-bk.credit / b.share * float64(time.Second))
		if repay > gap {
			gap = repay
		}
	}
	return gap, true
}

// Until bounds an inner schedule to a virtual-time horizon: the session
// ends (Next reports ok == false) at the first finished round whose end
// reaches the horizon on the path-local clock. Experiments use it to
// compare schedulers over identical observation windows — every
// scheduler monitors for the same virtual span and spends however many
// rounds its policy admits.
type Until struct {
	// Inner proposes gaps while the horizon is open; required.
	Inner Scheduler
	// Horizon is the path-local time at which the schedule is
	// exhausted; <= 0 ends every session at its first Next call.
	Horizon time.Duration
}

// Next ends the schedule past the horizon, else defers to Inner.
func (u *Until) Next(path string, h History) (time.Duration, bool) {
	if r, ok := h.LastRound(path); ok && r.End() >= u.Horizon {
		return 0, false
	}
	return u.Inner.Next(path, h)
}

// Bind forwards the fleet roster to a binding Inner (a wrapped
// Budgeted still gets its shares when the Monitor only sees the
// Until).
func (u *Until) Bind(paths []string) {
	if inner, ok := u.Inner.(FleetBinder); ok {
		inner.Bind(paths)
	}
}

// Validate checks a scheduler's static configuration, so misconfigured
// fleets fail at Monitor start instead of scheduling nonsense.
func Validate(s Scheduler) error {
	switch sc := s.(type) {
	case nil:
		return nil
	case *Fixed:
		if sc.Jitter < 0 || sc.Jitter > 1 {
			return fmt.Errorf("schedule: Fixed.Jitter %v outside [0,1]", sc.Jitter)
		}
	case *Adaptive:
		if sc.Base <= 0 {
			return fmt.Errorf("schedule: Adaptive.Base must be positive, got %v", sc.Base)
		}
		if min, max := sc.Bounds(); min < 0 || min > max {
			return fmt.Errorf("schedule: Adaptive clamp [%v, %v] invalid", min, max)
		}
	case *Budgeted:
		if sc.Inner == nil {
			return fmt.Errorf("schedule: Budgeted.Inner is nil")
		}
		if sc.Rate <= 0 {
			return fmt.Errorf("schedule: Budgeted.Rate must be positive, got %v", sc.Rate)
		}
		if sc.Burst < 0 {
			return fmt.Errorf("schedule: Budgeted.Burst must not be negative, got %v", sc.Burst)
		}
		return Validate(sc.Inner)
	case *Until:
		if sc.Inner == nil {
			return fmt.Errorf("schedule: Until.Inner is nil")
		}
		return Validate(sc.Inner)
	}
	return nil
}
