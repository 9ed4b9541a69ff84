package mrtg

import (
	"math"
	"testing"

	"repro/internal/crosstraffic"
	"repro/internal/netsim"
)

// TestWindowedReadings checks window boundaries and utilization math
// against a deterministic CBR load.
func TestWindowedReadings(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	// 500 kB/s of 1000-byte packets = 40% utilization.
	src := crosstraffic.NewSource(sim, link,
		crosstraffic.Constant{M: 2 * netsim.Millisecond},
		crosstraffic.FixedSize{Bytes: 1000}, 1)
	src.Start()

	mon := NewMonitor(sim, link, 10*netsim.Second)
	mon.Start()
	sim.RunFor(35 * netsim.Second)

	rs := mon.Readings()
	if len(rs) != 3 {
		t.Fatalf("%d readings after 35s of 10s windows, want 3", len(rs))
	}
	for i, r := range rs {
		if r.End-r.Start != 10*netsim.Second {
			t.Errorf("reading %d window %v, want 10s", i, r.End-r.Start)
		}
		if math.Abs(r.Util-0.4) > 0.01 {
			t.Errorf("reading %d utilization %v, want ≈0.40", i, r.Util)
		}
		if math.Abs(r.Avail-6e6) > 0.1e6 {
			t.Errorf("reading %d avail %v, want ≈6 Mb/s", i, r.Avail)
		}
		if math.Abs(r.Rate()-4e6) > 0.1e6 {
			t.Errorf("reading %d rate %v, want ≈4 Mb/s", i, r.Rate())
		}
	}
}

// TestStopDiscardsPartialWindow: stopping mid-window must not fabricate
// a reading.
func TestStopDiscardsPartialWindow(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	mon := NewMonitor(sim, link, 10*netsim.Second)
	mon.Start()
	sim.RunFor(25 * netsim.Second)
	mon.Stop()
	sim.RunFor(20 * netsim.Second)
	if got := len(mon.Readings()); got != 2 {
		t.Fatalf("%d readings, want 2 (partial third discarded)", got)
	}
}

// TestIdleLinkReadsFullAvail: an idle link reports avail equal to
// capacity.
func TestIdleLinkReadsFullAvail(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 42_000_000, 0, 0)
	mon := NewMonitor(sim, link, netsim.Second)
	mon.Start()
	sim.RunFor(3 * netsim.Second)
	for _, r := range mon.Readings() {
		if r.Util != 0 || r.Avail != 42e6 {
			t.Fatalf("idle link reading %+v", r)
		}
	}
}

// TestQuantize checks the MRTG bucket arithmetic.
func TestQuantize(t *testing.T) {
	for _, tc := range []struct {
		avail, step, lo, hi float64
	}{
		{74e6, 6e6, 72e6, 78e6},
		{0, 6e6, 0, 6e6},
		{6e6, 6e6, 6e6, 12e6},
		{5.99e6, 6e6, 0, 6e6},
		{10, 0, 10, 10}, // zero step: identity
	} {
		lo, hi := Quantize(tc.avail, tc.step)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("Quantize(%v, %v) = [%v, %v], want [%v, %v]", tc.avail, tc.step, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestMonitorValidation documents the window contract.
func TestMonitorValidation(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 1_000_000, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("zero window accepted")
		}
	}()
	NewMonitor(sim, link, 0)
}

// TestDoubleStartIsIdempotent guards against duplicated sampling loops.
func TestDoubleStartIsIdempotent(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 1_000_000, 0, 0)
	mon := NewMonitor(sim, link, netsim.Second)
	mon.Start()
	mon.Start()
	sim.RunFor(3500 * netsim.Millisecond)
	if got := len(mon.Readings()); got != 3 {
		t.Fatalf("%d readings after double Start, want 3", got)
	}
}

// TestRestartWithinWindow: stopping mid-window and starting again must
// leave one sampling chain, so every reading still spans one window.
func TestRestartWithinWindow(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 1_000_000, 0, 0)
	mon := NewMonitor(sim, link, netsim.Second)
	mon.Start()
	sim.RunFor(500 * netsim.Millisecond)
	mon.Stop()
	mon.Start()
	sim.RunFor(3 * netsim.Second)
	rs := mon.Readings()
	if len(rs) != 3 {
		t.Fatalf("%d readings after a restart and 3s of 1s windows, want 3", len(rs))
	}
	for i, r := range rs {
		if r.End-r.Start != netsim.Second {
			t.Errorf("reading %d spans %v, want 1s", i, r.End-r.Start)
		}
	}
}

// loadedLink builds a 10 Mb/s link with 6 Mb/s of Poisson load.
func loadedLink(seed int64) (*netsim.Simulator, *netsim.Link) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	crosstraffic.NewAggregate(sim, link, 6e6, 10,
		crosstraffic.ModelPoisson, crosstraffic.Trimodal{}, seed).Start()
	return sim, link
}

// TestSeriesMeanMatchesLoad: the sampled avail-bw process must average
// to C − load.
func TestSeriesMeanMatchesLoad(t *testing.T) {
	sim, link := loadedLink(1)
	mon := NewMonitor(sim, link, 10*netsim.Millisecond)
	mon.Start()
	sim.RunFor(60 * netsim.Second)
	series, err := mon.Series(netsim.Second)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range series {
		sum += v
	}
	mean := sum / float64(len(series))
	if math.Abs(mean-4e6)/4e6 > 0.05 {
		t.Fatalf("process mean %.2f Mb/s, want ≈4", mean/1e6)
	}
}

// TestVarianceDecreasesWithTimescale is the paper's §I relation.
func TestVarianceDecreasesWithTimescale(t *testing.T) {
	sim, link := loadedLink(2)
	mon := NewMonitor(sim, link, 10*netsim.Millisecond)
	mon.Start()
	sim.RunFor(120 * netsim.Second)
	pts := mon.VarianceByTimescale([]netsim.Time{
		10 * netsim.Millisecond, 100 * netsim.Millisecond, netsim.Second,
	})
	if len(pts) != 3 {
		t.Fatalf("got %d timescale points, want 3", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].StdDev >= pts[i-1].StdDev {
			t.Fatalf("σ(τ=%v)=%.0f not below σ(τ=%v)=%.0f",
				pts[i].Tau, pts[i].StdDev, pts[i-1].Tau, pts[i-1].StdDev)
		}
	}
}

// TestSeriesValidation covers misaligned and oversized timescales.
func TestSeriesValidation(t *testing.T) {
	sim, link := loadedLink(3)
	mon := NewMonitor(sim, link, 10*netsim.Millisecond)
	mon.Start()
	sim.RunFor(netsim.Second)
	if _, err := mon.Series(15 * netsim.Millisecond); err == nil {
		t.Error("misaligned timescale accepted")
	}
	if _, err := mon.Series(0); err == nil {
		t.Error("zero timescale accepted")
	}
	if _, err := mon.Series(10 * netsim.Second); err == nil {
		t.Error("timescale longer than the recording accepted")
	}
}

// TestIdleLinkSeries: with no traffic, A(t, τ) = C at every timescale.
func TestIdleLinkSeries(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	mon := NewMonitor(sim, link, 10*netsim.Millisecond)
	mon.Start()
	sim.RunFor(5 * netsim.Second)
	series, err := mon.Series(100 * netsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range series {
		if v != 10e6 {
			t.Fatalf("idle link avail %v, want capacity", v)
		}
	}
}
