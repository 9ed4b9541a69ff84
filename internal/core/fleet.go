package core

import "fmt"

// DefaultFleetFraction is the paper's fraction f of a fleet's streams
// that must agree before the whole fleet is declared increasing or
// non-increasing; fleets in between land in the grey region.
const DefaultFleetFraction = 0.7

// FleetVerdict is the decision about one fleet of streams probing at a
// common rate R.
type FleetVerdict int

// Fleet verdicts. VerdictAbove means R > A (the fleet showed an
// increasing trend); VerdictBelow means R < A; VerdictGrey means the
// avail-bw varied above and below R during the fleet (R is in the grey
// region); VerdictAborted means the fleet was cut short by losses and
// carries the paper's prescribed meaning "the rate is too high".
const (
	VerdictBelow FleetVerdict = iota
	VerdictAbove
	VerdictGrey
	VerdictAborted
)

// String names the fleet verdict.
func (v FleetVerdict) String() string {
	switch v {
	case VerdictBelow:
		return "R<A"
	case VerdictAbove:
		return "R>A"
	case VerdictGrey:
		return "grey"
	case VerdictAborted:
		return "aborted"
	default:
		return fmt.Sprintf("FleetVerdict(%d)", int(v))
	}
}

// ClassifyFleet reduces the verdicts of a fleet's streams to a fleet
// verdict using agreement fraction f (0 selects DefaultFleetFraction).
// Discarded streams do not vote; if every stream was discarded the
// fleet is aborted.
func ClassifyFleet(types []StreamType, f float64) FleetVerdict {
	inc, non := tally(types)
	return classifyVotes(inc, non, f)
}

// FleetDecided reports whether the fleet verdict is already settled
// with `remaining` streams still unsent: whatever those streams turn
// out to be — increasing, non-increasing or discarded — ClassifyFleet
// of the completed fleet equals ClassifyFleet(types, f). It compares
// the two extreme completions, every remaining stream increasing and
// every one non-increasing. Any other completion gives each camp at
// most what that camp's extreme gives it, and has no more voters than
// either, so a verdict both extremes share is shared by all of them;
// and when the extremes differ they are themselves two completions
// that disagree — the rule holds at the earliest prefix that allows it
// and at no earlier one (TestFleetDecidedExhaustive checks both over
// every sequence, float comparison included). A fleet with no voter
// yet is never decided while a stream remains.
func FleetDecided(types []StreamType, remaining int, f float64) bool {
	inc, non := tally(types)
	return classifyVotes(inc+remaining, non, f) == classifyVotes(inc, non+remaining, f)
}

// tally counts a fleet's voting streams by camp.
func tally(types []StreamType) (inc, non int) {
	for _, t := range types {
		switch t {
		case TypeIncreasing:
			inc++
		case TypeNonIncreasing:
			non++
		}
	}
	return inc, non
}

// classifyVotes is the f-fraction decision over the two camps' counts:
// the one place the threshold comparison and its tie order live.
func classifyVotes(inc, non int, f float64) FleetVerdict {
	if f == 0 {
		f = DefaultFleetFraction
	}
	if f < 0 || f > 1 {
		panic(fmt.Sprintf("core: fleet fraction %v outside [0,1]", f))
	}
	voting := inc + non
	if voting == 0 {
		return VerdictAborted
	}
	need := f * float64(voting)
	switch {
	case float64(inc) >= need:
		return VerdictAbove
	case float64(non) >= need:
		return VerdictBelow
	default:
		return VerdictGrey
	}
}
