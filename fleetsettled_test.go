package pathload

import (
	"testing"

	"repro/internal/core"
)

// A settledWalk enumerates fleets whose streams each carry a kind and a
// moderately-lossy bit (six symbols a stream) and checks fleetSettled at
// every prefix against the reference "send all N streams, apply the
// online moderate-loss rule after each, then ClassifyFleet".
type settledWalk struct {
	t     *testing.T
	f     float64
	kinds []core.StreamType
	lossy int // moderately lossy streams among kinds[:sent]
}

// reach returns the set of outcomes the completions of kinds[:sent]
// arrive at, a bit per outcome.
func (w *settledWalk) reach(sent int) uint {
	n := len(w.kinds)
	if w.lossy >= 2 && 2*w.lossy > sent {
		return 1 << uint(core.VerdictAborted) // the online rule fired at this stream
	}
	if sent == n {
		return 1 << uint(core.ClassifyFleet(w.kinds, w.f))
	}
	var reach uint
	for _, k := range []core.StreamType{core.TypeIncreasing, core.TypeNonIncreasing, core.TypeDiscard} {
		w.kinds[sent] = k
		reach |= w.reach(sent + 1)
		w.lossy++
		reach |= w.reach(sent + 1)
		w.lossy--
	}
	if sent == 0 {
		return reach // runFleet asks only after a stream
	}

	prefix := w.kinds[:sent]
	settled := fleetSettled(prefix, w.lossy, n-sent, w.f)
	unanimous := reach&(reach-1) == 0
	switch {
	case settled && !unanimous:
		w.t.Fatalf("N=%d f=%v: %v with %d lossy called settled, but its completions reach outcomes %04b", n, w.f, prefix, w.lossy, reach)
	case settled && reach != 1<<uint(core.ClassifyFleet(prefix, w.f)):
		w.t.Fatalf("N=%d f=%v: %v with %d lossy settled as %v, but every completion ends as %04b",
			n, w.f, prefix, w.lossy, core.ClassifyFleet(prefix, w.f), reach)
	case !settled && unanimous:
		w.t.Fatalf("N=%d f=%v: %v with %d lossy not called settled, yet every completion ends as %04b — the exit is late",
			n, w.f, prefix, w.lossy, reach)
	}
	return reach
}

// TestFleetSettledExhaustive extends core's TestFleetDecidedExhaustive
// with the loss policy: over all 6⁸ fleets of eight streams (and the
// small fleets examples/realnet runs), fleetSettled holds at a prefix
// if and only if every completion — lossy streams included — ends in
// the same outcome under the reference, and that outcome is
// ClassifyFleet of the prefix. In particular a fleet the full-fleet
// moderate-loss rule would abort is never left early with a verdict.
func TestFleetSettledExhaustive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for _, f := range []float64{0.5, 0.7, 1.0} {
			w := &settledWalk{t: t, f: f, kinds: make([]core.StreamType, n)}
			if reach := w.reach(0); reach&(1<<uint(core.VerdictAborted)) == 0 {
				t.Errorf("N=%d f=%v: no enumerated fleet aborted (outcomes %04b)", n, f, reach)
			}
		}
	}
}
