// Package availproc samples the ground-truth available-bandwidth
// process A(t, τ) of a simulated link: the paper defines avail-bw over
// an averaging timescale τ (Eq. 2–3) and observes that the variance of
// the process shrinks as τ grows — slowly, if the traffic is
// long-range dependent (§I). This package turns that definition into a
// measurement utility used by the timescale experiments and by tests
// that need exact avail-bw truth over arbitrary windows.
package availproc

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/stats"
)

// A Sampler records a link's transmitted bytes on a fine base interval
// so the avail-bw process can be re-aggregated at any coarser
// timescale afterwards.
type Sampler struct {
	sim  *netsim.Simulator
	link *netsim.Link
	base netsim.Time

	buckets []uint64
	last    netsim.LinkCounters
	running bool
}

// NewSampler creates a sampler with the given base resolution; every
// queryable timescale must be a multiple of it.
func NewSampler(sim *netsim.Simulator, link *netsim.Link, base netsim.Time) *Sampler {
	if base <= 0 {
		panic(fmt.Sprintf("availproc: base interval must be positive, got %v", base))
	}
	return &Sampler{sim: sim, link: link, base: base}
}

// Start begins sampling at the current simulated time.
func (s *Sampler) Start() {
	if s.running {
		return
	}
	s.running = true
	s.last = s.link.Counters()
	s.tick()
}

func (s *Sampler) tick() {
	s.sim.After(s.base, func() {
		if !s.running {
			return
		}
		cur := s.link.Counters()
		s.buckets = append(s.buckets, cur.BytesOut-s.last.BytesOut)
		s.last = cur
		s.tick()
	})
}

// Stop halts sampling; the partial bucket in progress is discarded.
func (s *Sampler) Stop() { s.running = false }

// Series returns the avail-bw process sampled at timescale τ (which
// must be a positive multiple of the base interval): one value per
// non-overlapping τ-window, A = C·(1 − u). Trailing samples that do not
// fill a window are dropped.
func (s *Sampler) Series(tau netsim.Time) ([]float64, error) {
	if tau <= 0 || tau%s.base != 0 {
		return nil, fmt.Errorf("availproc: timescale %v is not a positive multiple of base %v", tau, s.base)
	}
	group := int(tau / s.base)
	cap := float64(s.link.Capacity())
	var out []float64
	for i := 0; i+group <= len(s.buckets); i += group {
		var bytes uint64
		for j := 0; j < group; j++ {
			bytes += s.buckets[i+j]
		}
		util := float64(bytes) * 8 / (cap * tau.Seconds())
		out = append(out, cap*(1-util))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("availproc: %d base buckets cannot fill one %v window", len(s.buckets), tau)
	}
	return out, nil
}

// A TimescalePoint summarizes the avail-bw process at one timescale.
type TimescalePoint struct {
	Tau     netsim.Time
	Mean    float64
	StdDev  float64
	Windows int
}

// VarianceByTimescale evaluates the process at each timescale, the
// paper's variance-versus-τ relation. Timescales that cannot be formed
// from the recorded buckets are skipped.
func (s *Sampler) VarianceByTimescale(taus []netsim.Time) []TimescalePoint {
	var out []TimescalePoint
	for _, tau := range taus {
		series, err := s.Series(tau)
		if err != nil {
			continue
		}
		out = append(out, TimescalePoint{
			Tau:     tau,
			Mean:    stats.Mean(series),
			StdDev:  stats.StdDev(series),
			Windows: len(series),
		})
	}
	return out
}
