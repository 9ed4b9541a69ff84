package pathload

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// StreamKind is a stream verdict: internal/core's type, under the name
// this package exports.
type StreamKind = core.StreamType

// Stream verdicts: increasing OWD trend (rate above avail-bw),
// non-increasing, or discarded (lossy/flagged, did not vote).
const (
	StreamNonIncreasing = core.TypeNonIncreasing
	StreamIncreasing    = core.TypeIncreasing
	StreamDiscarded     = core.TypeDiscard
)

// Verdict is a fleet verdict: internal/core's type, under the name this
// package exports.
type Verdict = core.FleetVerdict

// Fleet verdicts: the probing rate was below the avail-bw, above it, in
// the grey region (the avail-bw fluctuated around it), or the fleet was
// aborted because of losses (treated as "rate too high").
const (
	FleetBelow   = core.VerdictBelow
	FleetAbove   = core.VerdictAbove
	FleetGrey    = core.VerdictGrey
	FleetAborted = core.VerdictAborted
)

// A StreamTrace records the classification of one stream.
type StreamTrace struct {
	Kind StreamKind
	PCT  float64 // pairwise comparison test statistic
	PDT  float64 // pairwise difference test statistic
	Loss float64 // fraction of the stream's packets lost
}

// A FleetTrace records one fleet of the iterative search. Streams holds
// the streams actually sent: fewer than Config.StreamsPerFleet with a
// Verdict other than FleetAborted means the fleet was decided early —
// the verdict is what all N streams would have produced — and with
// FleetAborted that the loss policy cut it short.
type FleetTrace struct {
	Rate    float64       // requested fleet rate, bits/s
	L       int           // probe packet size, bytes
	T       time.Duration // packet interspacing
	Delta   time.Duration // idle gap between streams
	Verdict Verdict
	Streams []StreamTrace
}

// A Result is the outcome of one pathload run.
type Result struct {
	// Lo and Hi bracket the avail-bw variation range observed during
	// the measurement, in bits/s: the paper's [Rmin, Rmax].
	Lo, Hi float64
	// GreySet reports whether a grey region was detected; GreyLo and
	// GreyHi bound it when set.
	GreySet        bool
	GreyLo, GreyHi float64
	// HitMax means no fleet ever observed an increasing trend: the
	// avail-bw is at or above Hi (which equals the probing limit).
	// HitMin is the symmetric bottom-of-range flag.
	HitMax, HitMin bool
	// ADR is the asymptotic dispersion rate measured by the
	// initialization stream (0 when the probe is disabled or failed);
	// it upper-bounds the search.
	ADR float64
	// Fleets is the full search log.
	Fleets []FleetTrace
	// Elapsed is the probing time consumed: the durations of the
	// streams actually sent plus the idles between them (virtual time
	// under the simulator). Streams a decided or aborted fleet did not
	// send cost nothing.
	Elapsed time.Duration
	// Bits is the probe load injected into the path: every packet the
	// sender actually emitted (init stream and fleet streams alike)
	// times its wire size, in bits. Like Elapsed it is reported even
	// when the run errors, so schedulers and budget accounting see the
	// true cost of failed rounds (§VIII intrusiveness).
	Bits float64
}

// Mid returns the center of the reported range.
func (r Result) Mid() float64 { return (r.Lo + r.Hi) / 2 }

// Width returns Hi − Lo.
func (r Result) Width() float64 { return r.Hi - r.Lo }

// RelVar returns ρ (Eq. 12), the range width over its center — the
// paper's measure of avail-bw variability. It returns 0 for a
// zero-center range.
func (r Result) RelVar() float64 {
	if r.Mid() == 0 {
		return 0
	}
	return r.Width() / r.Mid()
}

// Brackets is the one grading rule for an estimate against a known
// avail-bw a: the range [lo, hi] — one Result's [Lo, Hi] or a window's
// [MinLo, MaxHi] — brackets a when it contains it after widening by
// slack on both sides. Graders pass Config.Slack, so every estimator
// and every experiment is held to the same tolerance.
func Brackets(lo, hi, a, slack float64) bool { return lo-slack <= a && a <= hi+slack }

// String formats the range in Mb/s.
func (r Result) String() string {
	s := fmt.Sprintf("avail-bw [%.2f, %.2f] Mb/s", r.Lo/1e6, r.Hi/1e6)
	if r.GreySet {
		s += fmt.Sprintf(" (grey [%.2f, %.2f])", r.GreyLo/1e6, r.GreyHi/1e6)
	}
	if r.HitMax {
		s += " (at probe limit: true avail-bw may be higher)"
	}
	return s
}
