package crosstraffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

// TestInterarrivalMeans checks every model's empirical mean against its
// nominal mean.
func TestInterarrivalMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mean := 500 * netsim.Microsecond
	for _, tc := range []struct {
		name string
		iat  Interarrival
		tol  float64
	}{
		{"exponential", Exponential{M: mean}, 0.05},
		{"pareto", Pareto{Alpha: ParetoAlpha, M: mean}, 0.15}, // heavy tail converges slowly
		{"constant", Constant{M: mean}, 0},
	} {
		const n = 200_000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(tc.iat.Next(rng))
		}
		got := sum / n
		if tc.iat.Mean() != mean {
			t.Errorf("%s: Mean() = %v, want %v", tc.name, tc.iat.Mean(), mean)
		}
		if rel := math.Abs(got-float64(mean)) / float64(mean); rel > tc.tol {
			t.Errorf("%s: empirical mean %v vs nominal %v (rel err %.3f > %v)",
				tc.name, netsim.Time(got), mean, rel, tc.tol)
		}
	}
}

// TestParetoHeavyTail checks the defining property: the Pareto(1.9)
// tail P(X > 10·mean) is orders of magnitude heavier than the
// exponential's e⁻¹⁰ ≈ 4.5·10⁻⁵ (analytically ≈ 3·10⁻³ here).
func TestParetoHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mean := netsim.Millisecond
	tail := func(iat Interarrival) float64 {
		const n = 200_000
		over := 0
		for i := 0; i < n; i++ {
			if iat.Next(rng) > 10*mean {
				over++
			}
		}
		return float64(over) / n
	}
	tPar := tail(Pareto{Alpha: ParetoAlpha, M: mean})
	tExp := tail(Exponential{M: mean})
	if tPar < 1e-3 {
		t.Errorf("Pareto tail mass %.5f, want ≈3e-3", tPar)
	}
	if tPar < 10*tExp {
		t.Errorf("Pareto tail %.5f not clearly heavier than exponential %.5f", tPar, tExp)
	}
}

// TestParetoPositive is the property test: draws are always positive
// and at least the scale parameter xm.
func TestParetoPositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Pareto{Alpha: ParetoAlpha, M: netsim.Millisecond}
		xm := float64(p.M) * (p.Alpha - 1) / p.Alpha
		for i := 0; i < 1000; i++ {
			v := p.Next(rng)
			if float64(v) < xm-1 || v <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParetoBadAlphaPanics: α ≤ 1 has no finite mean.
func TestParetoBadAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pareto with alpha=1 did not panic")
		}
	}()
	Pareto{Alpha: 1, M: netsim.Millisecond}.Next(rand.New(rand.NewSource(1)))
}

// TestTrimodalProportions checks the paper's 40/50/10 size mix.
func TestTrimodalProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var d Trimodal
	counts := map[int]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[d.Next(rng)]++
	}
	if len(counts) != 3 {
		t.Fatalf("trimodal produced sizes %v", counts)
	}
	for size, want := range map[int]float64{40: 0.4, 550: 0.5, 1500: 0.1} {
		got := float64(counts[size]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("size %dB: fraction %.3f, want %.2f", size, got, want)
		}
	}
	if got := d.MeanBytes(); got != 441 {
		t.Errorf("MeanBytes = %v, want 441", got)
	}
}

// TestSourceRate runs a single source and checks its long-run rate.
func TestSourceRate(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 100_000_000, 0, 0)
	const rate = 2_000_000.0
	meanIAT := netsim.FromSeconds(441 * 8 / rate)
	src := NewSource(sim, link, Exponential{M: meanIAT}, Trimodal{}, 7)
	src.Start()
	sim.RunFor(60 * netsim.Second)
	got := float64(link.Counters().BytesOut) * 8 / sim.Now().Seconds()
	if math.Abs(got-rate)/rate > 0.05 {
		t.Fatalf("source rate %.0f b/s, want ≈%.0f", got, rate)
	}
}

// TestAggregateRate checks that n sources sum to the requested rate for
// each model.
func TestAggregateRate(t *testing.T) {
	for _, model := range []Model{ModelPoisson, ModelPareto, ModelCBR} {
		t.Run(model.String(), func(t *testing.T) {
			sim := netsim.NewSimulator()
			link := netsim.NewLink(sim, "l", 100_000_000, 0, 0)
			const rate = 6_000_000.0
			agg := NewAggregate(sim, link, rate, 10, model, Trimodal{}, 11)
			agg.Start()
			sim.RunFor(120 * netsim.Second)
			got := float64(link.Counters().BytesOut) * 8 / sim.Now().Seconds()
			tol := 0.05
			if model == ModelPareto {
				tol = 0.15
			}
			if math.Abs(got-rate)/rate > tol {
				t.Fatalf("aggregate rate %.0f b/s, want ≈%.0f", got, rate)
			}
		})
	}
}

// TestSourceStop checks that a stopped source emits nothing further and
// can be restarted.
func TestSourceStop(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	src := NewSource(sim, link, Constant{M: netsim.Millisecond}, FixedSize{Bytes: 100}, 1)
	src.Start()
	sim.RunFor(100 * netsim.Millisecond)
	src.Stop()
	at := link.Counters().PktsIn
	sim.RunFor(100 * netsim.Millisecond)
	if link.Counters().PktsIn != at {
		t.Fatal("stopped source kept emitting")
	}
	src.Start()
	sim.RunFor(100 * netsim.Millisecond)
	if link.Counters().PktsIn <= at {
		t.Fatal("restarted source emitted nothing")
	}
}

// TestAggregateZeroRate: a zero-rate aggregate is empty and harmless.
func TestAggregateZeroRate(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	agg := NewAggregate(sim, link, 0, 10, ModelPoisson, Trimodal{}, 1)
	agg.Start()
	sim.RunFor(netsim.Second)
	if got := link.Counters().PktsIn; got != 0 {
		t.Fatalf("zero-rate aggregate emitted %d packets", got)
	}
	agg.Stop()
}

// TestAggregateValidation checks constructor panics.
func TestAggregateValidation(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	for name, fn := range map[string]func(){
		"zero sources":  func() { NewAggregate(sim, link, 1e6, 0, ModelPoisson, Trimodal{}, 1) },
		"negative rate": func() { NewAggregate(sim, link, -1, 1, ModelPoisson, Trimodal{}, 1) },
		"unknown model": func() { NewAggregate(sim, link, 1e6, 1, Model(99), Trimodal{}, 1) },
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

// TestRandomPhaseDesynchronizesCBR is the regression test for the
// lockstep bug: a CBR aggregate's packets must not arrive in
// simultaneous bursts.
func TestRandomPhaseDesynchronizesCBR(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 100_000_000, 0, 0)
	var arrivals []netsim.Time
	link.OnTransmit(func(_ *netsim.Packet, done netsim.Time) { arrivals = append(arrivals, done) })
	agg := NewAggregate(sim, link, 4e6, 10, ModelCBR, FixedSize{Bytes: 500}, 13)
	agg.Start()
	sim.RunFor(5 * netsim.Second)

	// Count arrivals that coincide exactly; in-phase sources would make
	// every burst 10 deep.
	coincident := 0
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] == arrivals[i-1] {
			coincident++
		}
	}
	if frac := float64(coincident) / float64(len(arrivals)); frac > 0.05 {
		t.Fatalf("%.1f%% of CBR aggregate arrivals coincide; phases not randomized", frac*100)
	}
}
