package udprobe

import (
	"testing"
	"time"

	pathload "repro"
)

// TestProberReceiveAllocationBudget: over loopback, a stream of 200
// probes allocates exactly as many objects as a stream of 20 — the
// fresh OWDs slice and the control exchange per stream, nothing per
// packet. The count covers the in-process sender too, whose cost is
// per stream as well.
func TestProberReceiveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p, err := Dial(startSender(t), ProberConfig{CollectSlack: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer p.Close()

	allocs := func(k int) float64 {
		spec := pathload.StreamSpec{K: k, L: 200, T: 10 * time.Microsecond}
		return testing.AllocsPerRun(10, func() {
			res, err := p.SendStream(spec)
			if err != nil {
				t.Fatalf("SendStream: %v", err)
			}
			if len(res.OWDs) != k {
				t.Fatalf("received %d of %d probes on loopback", len(res.OWDs), k)
			}
		})
	}
	if small, large := allocs(20), allocs(200); large != small {
		t.Errorf("a K=200 stream allocates %v objects, a K=20 stream %v: the receive loop allocates per packet", large, small)
	}
}
