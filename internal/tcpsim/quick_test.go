package tcpsim

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

// TestQuickDataIntegrity is the property test: across random link
// capacities, buffers, and delays — i.e. arbitrary loss patterns — the
// receiver's in-order byte count never exceeds what the sender
// transmitted, the delivery series is monotone, and the flow makes
// progress whenever the path can carry anything at all.
func TestQuickDataIntegrity(t *testing.T) {
	f := func(capSel uint32, bufSel uint16, propSel uint8) bool {
		capacity := int64(200_000 + capSel%50_000_000)
		buf := 4000 + int(bufSel) // 4 kB .. 69 kB: loss-prone
		prop := netsim.Time(propSel%100) * netsim.Millisecond

		sim := netsim.NewSimulator()
		link := netsim.NewLink(sim, "l", capacity, prop, buf)
		flow := NewFlow(sim, "q", []*netsim.Link{link}, 10*netsim.Millisecond, 0)
		flow.Start()
		sim.RunFor(20 * netsim.Second)

		if flow.Delivered() > flow.highestSent {
			return false // receiver invented data
		}
		pts := flow.Deliveries()
		for i := 1; i < len(pts); i++ {
			if pts[i].Bytes < pts[i-1].Bytes {
				return false
			}
		}
		// Any non-degenerate path must carry something in 20 s.
		return flow.Delivered() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCwndFloor: whatever happens, cwnd never drops below one MSS
// and ssthresh never below two.
func TestQuickCwndFloor(t *testing.T) {
	f := func(bufSel uint16) bool {
		sim := netsim.NewSimulator()
		// Harsh little buffer to force constant loss activity.
		link := netsim.NewLink(sim, "l", 1_000_000, netsim.Millisecond, 3000+int(bufSel)%10_000)
		flow := NewFlow(sim, "floor", []*netsim.Link{link}, 5*netsim.Millisecond, 0)
		flow.Start()
		for i := 0; i < 40; i++ {
			sim.RunFor(500 * netsim.Millisecond)
			if flow.cwnd < float64(mssBytes) {
				return false
			}
			if flow.ssthresh < 2*float64(mssBytes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFlightNeverNegative: sequence bookkeeping stays consistent
// under timeouts and go-back-N.
func TestQuickFlightNeverNegative(t *testing.T) {
	f := func(capSel uint32) bool {
		sim := netsim.NewSimulator()
		link := netsim.NewLink(sim, "l", int64(100_000+capSel%5_000_000), 2*netsim.Millisecond, 5000)
		flow := NewFlow(sim, "flight", []*netsim.Link{link}, 10*netsim.Millisecond, 0)
		flow.Start()
		for i := 0; i < 20; i++ {
			sim.RunFor(netsim.Second)
			if flow.flight() < 0 {
				return false
			}
			if flow.sndUna > flow.nextSeq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
