package core

import "testing"

// reachableVerdicts walks every completion of seq[:sent] to a fleet of
// len(seq) streams — each unsent stream increasing, non-increasing or
// discarded — and returns the set of ClassifyFleet verdicts they reach,
// as a bit per verdict. On the way it checks FleetDecided at every
// prefix it passes, so one call on the empty prefix covers all
// 3^len(seq) stream sequences and all their prefixes.
func reachableVerdicts(t *testing.T, seq []StreamType, sent int, f float64) uint {
	n := len(seq)
	if sent == n {
		return 1 << uint(ClassifyFleet(seq, f))
	}
	var reach uint
	for _, k := range []StreamType{TypeIncreasing, TypeNonIncreasing, TypeDiscard} {
		seq[sent] = k
		reach |= reachableVerdicts(t, seq, sent+1, f)
	}

	prefix := seq[:sent]
	decided := FleetDecided(prefix, n-sent, f)
	unanimous := reach&(reach-1) == 0
	switch {
	case decided && !unanimous:
		t.Fatalf("N=%d f=%v: %v called decided, but its completions reach verdicts %03b", n, f, prefix, reach)
	case decided && reach != 1<<uint(ClassifyFleet(prefix, f)):
		t.Fatalf("N=%d f=%v: %v decided as %v, but every completion classifies as %03b",
			n, f, prefix, ClassifyFleet(prefix, f), reach)
	case !decided && unanimous:
		t.Fatalf("N=%d f=%v: %v not called decided, yet every completion classifies as %03b — the exit is late",
			n, f, prefix, reach)
	}
	if inc, non := tally(prefix); decided && inc+non == 0 {
		t.Fatalf("N=%d f=%v: all-discard prefix of %d streams decided with %d to go", n, f, sent, n-sent)
	}
	return reach
}

// TestFleetDecidedExhaustive is the proof of "verdict-preserving": for
// the paper's N = 12, every one of the 3¹² stream sequences and five
// fractions from the f ≤ 0.5 tie order to unanimity, FleetDecided holds
// at a prefix if and only if all completions of that prefix get the
// same ClassifyFleet verdict — so at the first decided prefix the
// verdict is the full fleet's (never a wrong exit), at every earlier
// prefix two completions still disagree (never a late one) — and that
// verdict is ClassifyFleet of the prefix itself, which is what runFleet
// reports. A prefix of discards alone is never decided while a stream
// remains. N = 1, 2, 4 and 6 cover the small-fleet edges (examples/realnet
// runs 2 and 4).
func TestFleetDecidedExhaustive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 12} {
		for _, f := range []float64{0.5, 0.6, 0.7, 0.9, 1.0} {
			reach := reachableVerdicts(t, make([]StreamType, n), 0, f)
			if want := uint(1<<VerdictBelow | 1<<VerdictAbove | 1<<VerdictAborted); reach&want != want {
				t.Errorf("N=%d f=%v: the enumeration reached verdicts %04b, want at least %04b", n, f, reach, want)
			}
		}
	}
}

// TestFleetDecidedPaperFleet pins the counts the rule gives for the
// paper's fleet, N = 12 and f = 0.7: nine agreeing streams settle it,
// eight do not, and four of each camp settle it as grey.
func TestFleetDecidedPaperFleet(t *testing.T) {
	for _, tc := range []struct {
		inc, non, dis int
		want          bool
	}{
		{9, 0, 0, true},
		{0, 9, 0, true},
		{8, 0, 0, false},
		{8, 0, 1, true}, // a discard shrinks the electorate: at worst 8 of 11 voters, 72.7 %
		{9, 1, 0, true},
		{4, 4, 0, true}, // neither camp can reach 8.4 of 12: grey
		{4, 3, 0, false},
		{0, 0, 11, false},
		{0, 0, 12, true}, // nothing remains: aborted is final
	} {
		types := repeat(tc.inc, tc.non, tc.dis)
		rem := 12 - len(types)
		if got := FleetDecided(types, rem, DefaultFleetFraction); got != tc.want {
			t.Errorf("I=%d N=%d D=%d, %d to go: decided = %v, want %v", tc.inc, tc.non, tc.dis, rem, got, tc.want)
		}
	}
}
