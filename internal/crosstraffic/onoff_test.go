package crosstraffic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netsim"
)

// TestParetoOnOffMean: the analytic Mean() honors the duty cycle and
// the empirical mean converges to it. α = 1.5 has infinite variance, so
// the tolerance is generous and the seed pinned.
func TestParetoOnOffMean(t *testing.T) {
	mean := 500 * netsim.Microsecond
	p := NewParetoOnOff(mean)
	// BurstIAT is quantized to nanoseconds, so Mean() may be off by the
	// duty-cycle multiple of the truncation (here 2 ns).
	if got := p.Mean(); got < mean-netsim.Microsecond || got > mean+netsim.Microsecond {
		t.Fatalf("Mean() = %v, want ≈%v", got, mean)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 1_000_000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(p.Next(rng))
	}
	got := sum / n
	if rel := math.Abs(got-float64(mean)) / float64(mean); rel > 0.15 {
		t.Fatalf("empirical mean %v vs nominal %v (rel err %.3f)", netsim.Time(got), mean, rel)
	}
}

// TestParetoOnOffBursts: draws alternate between constant within-burst
// spacing and heavy-tailed silences — the structure that makes the
// multiplexed aggregate long-range dependent.
func TestParetoOnOffBursts(t *testing.T) {
	mean := 500 * netsim.Microsecond
	p := NewParetoOnOff(mean)
	rng := rand.New(rand.NewSource(6))
	inBurst, silences := 0, 0
	for i := 0; i < 100_000; i++ {
		if gap := p.Next(rng); gap == p.BurstIAT {
			inBurst++
		} else if gap > p.BurstIAT {
			silences++
		} else {
			t.Fatalf("draw %v below the within-burst spacing %v", gap, p.BurstIAT)
		}
	}
	if inBurst == 0 || silences == 0 {
		t.Fatalf("no on/off structure: %d within-burst draws, %d silences", inBurst, silences)
	}
	// Bursts must dominate draws (mean burst holds many packets), and the
	// silences must carry the other 2/3 of the duty cycle.
	if inBurst < 10*silences {
		t.Errorf("bursts too short: %d within-burst draws vs %d silences", inBurst, silences)
	}
}

// TestParetoOnOffInvalidPanics: a zero-valued ParetoOnOff cannot draw.
func TestParetoOnOffInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero ParetoOnOff did not panic")
		}
	}()
	(&ParetoOnOff{}).Next(rand.New(rand.NewSource(1)))
}

// TestAggregateOnOffRate: a ModelOnOff aggregate's long-run rate still
// matches the request (the burst spacing is duty-cycle-compressed to
// compensate for the silences).
func TestAggregateOnOffRate(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 100_000_000, 0, 0)
	const rate = 6_000_000.0
	agg := NewAggregate(sim, link, rate, 10, ModelOnOff, Trimodal{}, 11)
	agg.Start()
	sim.RunFor(300 * netsim.Second)
	got := float64(link.Counters().BytesOut) * 8 / sim.Now().Seconds()
	if math.Abs(got-rate)/rate > 0.15 {
		t.Fatalf("on/off aggregate rate %.0f b/s, want ≈%.0f", got, rate)
	}
}

// TestRampSourceShape: arrivals track the trapezoid — sparse during the
// ramp, ≈Peak on the plateau, then silence once a finite trapezoid
// closes.
func TestRampSourceShape(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 100_000_000, 0, 0)
	const peak = 8_000_000.0
	ramp := NewRampSource(sim, link,
		peak, 2*netsim.Second, 10*netsim.Second, 2*netsim.Second, Trimodal{}, 21)

	if got := ramp.RateAt(netsim.Second); math.Abs(got-peak/2) > 1 {
		t.Errorf("RateAt(mid-ramp) = %v, want %v", got, peak/2)
	}
	if got := ramp.RateAt(5 * netsim.Second); got != peak {
		t.Errorf("RateAt(plateau) = %v, want %v", got, peak)
	}
	if got := ramp.RateAt(20 * netsim.Second); got != 0 {
		t.Errorf("RateAt(after close) = %v, want 0", got)
	}

	bytesAt := func() uint64 { return link.Counters().BytesOut }
	ramp.Start()
	sim.RunFor(2 * netsim.Second)
	rampBytes := bytesAt()
	sim.RunFor(10 * netsim.Second)
	plateauBytes := bytesAt() - rampBytes
	plateauRate := float64(plateauBytes) * 8 / 10
	if math.Abs(plateauRate-peak)/peak > 0.1 {
		t.Fatalf("plateau rate %.0f b/s, want ≈%.0f", plateauRate, peak)
	}
	// Ramp carried roughly half the plateau's per-second rate.
	rampRate := float64(rampBytes) * 8 / 2
	if rampRate < 0.25*peak || rampRate > 0.75*peak {
		t.Errorf("ramp-up mean rate %.0f b/s, want ≈%.0f", rampRate, peak/2)
	}
	// After the trapezoid closes the source retires itself.
	sim.RunFor(3 * netsim.Second)
	closed := bytesAt()
	sim.RunFor(5 * netsim.Second)
	if bytesAt() != closed {
		t.Fatal("ramp source kept emitting after the trapezoid closed")
	}
	if sim.Pending() != 0 {
		t.Fatalf("retired ramp source left %d events pending", sim.Pending())
	}
}

// TestRampSourceIndefiniteHold: Hold = 0 keeps the plateau forever (the
// flash crowd arrives and stays), and Stop silences it.
func TestRampSourceIndefiniteHold(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 100_000_000, 0, 0)
	const peak = 8_000_000.0
	ramp := NewRampSource(sim, link,
		peak, netsim.Second, 0, netsim.Second, Trimodal{}, 22)
	ramp.Start()
	sim.RunFor(30 * netsim.Second)
	before := link.Counters().BytesOut
	sim.RunFor(10 * netsim.Second)
	held := float64(link.Counters().BytesOut-before) * 8 / 10
	if math.Abs(held-peak)/peak > 0.1 {
		t.Fatalf("held rate %.0f b/s after 30s, want ≈%.0f (plateau should be indefinite)", held, peak)
	}
	ramp.Stop()
	at := link.Counters().PktsIn
	sim.RunFor(5 * netsim.Second)
	if link.Counters().PktsIn != at {
		t.Fatal("stopped ramp source kept emitting")
	}
}

// TestRampSourceValidation checks constructor panics.
func TestRampSourceValidation(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	for name, fn := range map[string]func(){
		"zero peak":     func() { NewRampSource(sim, link, 0, netsim.Second, 0, 0, Trimodal{}, 1) },
		"negative ramp": func() { NewRampSource(sim, link, 1e6, -1, 0, 0, Trimodal{}, 1) },
		"negative hold": func() { NewRampSource(sim, link, 1e6, netsim.Second, -1, 0, Trimodal{}, 1) },
		"negative down": func() { NewRampSource(sim, link, 1e6, netsim.Second, 0, -1, Trimodal{}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
