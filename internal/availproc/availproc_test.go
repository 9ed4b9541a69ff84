package availproc

import (
	"math"
	"testing"

	"repro/internal/crosstraffic"
	"repro/internal/netsim"
)

// loadedLink builds a 10 Mb/s link with 6 Mb/s of Poisson load.
func loadedLink(seed int64) (*netsim.Simulator, *netsim.Link) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	agg := crosstraffic.NewAggregate(sim, []*netsim.Link{link}, 6e6, 10,
		crosstraffic.ModelPoisson, crosstraffic.Trimodal{}, seed)
	agg.Start()
	return sim, link
}

// TestSeriesMeanMatchesLoad: the sampled avail-bw process must average
// to C − load.
func TestSeriesMeanMatchesLoad(t *testing.T) {
	sim, link := loadedLink(1)
	s := NewSampler(sim, link, 10*netsim.Millisecond)
	s.Start()
	sim.RunFor(60 * netsim.Second)
	series, err := s.Series(netsim.Second)
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
	s := NewSampler(sim, link, 10*netsim.Millisecond)
	s.Start()
	sim.RunFor(120 * netsim.Second)
	pts := s.VarianceByTimescale([]netsim.Time{
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
	s := NewSampler(sim, link, 10*netsim.Millisecond)
	s.Start()
	sim.RunFor(netsim.Second)
	if _, err := s.Series(15 * netsim.Millisecond); err == nil {
		t.Error("misaligned timescale accepted")
	}
	if _, err := s.Series(0); err == nil {
		t.Error("zero timescale accepted")
	}
	if _, err := s.Series(time10s()); err == nil {
		t.Error("timescale longer than the recording accepted")
	}
}

func time10s() netsim.Time { return 10 * netsim.Second }

// TestStopHaltsSampling: no buckets accumulate after Stop.
func TestStopHaltsSampling(t *testing.T) {
	sim, link := loadedLink(4)
	s := NewSampler(sim, link, 10*netsim.Millisecond)
	s.Start()
	sim.RunFor(netsim.Second)
	s.Stop()
	n := len(s.buckets)
	sim.RunFor(netsim.Second)
	if len(s.buckets) != n {
		t.Fatalf("buckets grew after Stop: %d → %d", n, len(s.buckets))
	}
}

// TestSamplerValidation covers the base-interval contract.
func TestSamplerValidation(t *testing.T) {
	sim, link := loadedLink(5)
	defer func() {
		if recover() == nil {
			t.Fatal("zero base interval accepted")
		}
	}()
	NewSampler(sim, link, 0)
}

// TestIdleLinkSeries: with no traffic, A(t, τ) = C at every timescale.
func TestIdleLinkSeries(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 10_000_000, 0, 0)
	s := NewSampler(sim, link, 10*netsim.Millisecond)
	s.Start()
	sim.RunFor(5 * netsim.Second)
	series, err := s.Series(100 * netsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range series {
		if v != 10e6 {
			t.Fatalf("idle link avail %v, want capacity", v)
		}
	}
}
