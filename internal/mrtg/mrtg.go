// Package mrtg is the simulation's stand-in for the Multi Router
// Traffic Grapher readings the paper uses as verification ground truth
// (§V-B): windowed averages of a link's transmitted bytes, converted to
// utilization and available bandwidth, with the coarse reading
// quantization of real MRTG graphs (the paper reads its graphs in
// 6 Mb/s buckets).
//
// The same readings, taken on a fine window, re-aggregate into the
// avail-bw process A(t, τ) at any coarser timescale τ: the paper
// defines avail-bw over an averaging timescale (Eq. 2–3) and observes
// that the variance of the process shrinks as τ grows — slowly, if the
// traffic is long-range dependent (§I).
package mrtg

import (
	"fmt"

	"repro/internal/eventq"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// A Reading is one averaging window of link activity.
type Reading struct {
	Start, End netsim.Time
	Bytes      uint64  // bytes transmitted during the window
	Util       float64 // mean utilization during the window
	Avail      float64 // capacity · (1 − Util), bits/s
}

// Rate returns the mean transmitted rate in bits/s.
func (r Reading) Rate() float64 {
	w := (r.End - r.Start).Seconds()
	if w <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / w
}

// A Monitor samples one link's counters on a fixed window. The paper's
// MRTG windows are 5 minutes; simulations may use shorter ones.
type Monitor struct {
	sim    *netsim.Simulator
	link   *netsim.Link
	window netsim.Time

	readings []Reading
	last     netsim.LinkCounters
	lastAt   netsim.Time
	sampleFn func()
	next     eventq.Handle // the pending window close
	running  bool
}

// NewMonitor creates a monitor for link with the given averaging
// window. Call Start to begin sampling.
func NewMonitor(sim *netsim.Simulator, link *netsim.Link, window netsim.Time) *Monitor {
	if window <= 0 {
		panic(fmt.Sprintf("mrtg: window must be positive, got %v", window))
	}
	m := &Monitor{sim: sim, link: link, window: window}
	m.sampleFn = m.sample
	return m
}

// Start begins sampling at the current simulated time.
func (m *Monitor) Start() {
	if m.running {
		return
	}
	m.running = true
	m.last = m.link.Counters()
	m.lastAt = m.sim.Now()
	m.next = m.sim.After(m.window, m.sampleFn)
}

// sample closes the current window and opens the next.
func (m *Monitor) sample() {
	now := m.sim.Now()
	cur := m.link.Counters()
	util := netsim.Utilization(m.last, cur, now-m.lastAt)
	m.readings = append(m.readings, Reading{
		Start: m.lastAt,
		End:   now,
		Bytes: cur.BytesOut - m.last.BytesOut,
		Util:  util,
		Avail: float64(m.link.Capacity()) * (1 - util),
	})
	m.last = cur
	m.lastAt = now
	m.next = m.sim.After(m.window, m.sampleFn)
}

// Stop halts sampling. A partial window is discarded, as a real MRTG
// graph would; a restarted monitor opens a fresh window.
func (m *Monitor) Stop() {
	if m.running {
		m.sim.Cancel(m.next)
		m.next = eventq.Handle{}
		m.running = false
	}
}

// Readings returns the completed windows so far.
func (m *Monitor) Readings() []Reading { return m.readings }

// Series returns the avail-bw process sampled at timescale τ, which
// must be a positive multiple of the window: one value per
// non-overlapping τ-span of readings, A = C·(1 − u). Trailing readings
// that do not fill a span are dropped.
func (m *Monitor) Series(tau netsim.Time) ([]float64, error) {
	if tau <= 0 || tau%m.window != 0 {
		return nil, fmt.Errorf("mrtg: timescale %v is not a positive multiple of window %v", tau, m.window)
	}
	group := int(tau / m.window)
	cap := float64(m.link.Capacity())
	var out []float64
	for i := 0; i+group <= len(m.readings); i += group {
		var bytes uint64
		for _, r := range m.readings[i : i+group] {
			bytes += r.Bytes
		}
		util := float64(bytes) * 8 / (cap * tau.Seconds())
		out = append(out, cap*(1-util))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mrtg: %d readings cannot fill one %v span", len(m.readings), tau)
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
// from the readings are skipped.
func (m *Monitor) VarianceByTimescale(taus []netsim.Time) []TimescalePoint {
	var out []TimescalePoint
	for _, tau := range taus {
		series, err := m.Series(tau)
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

// Quantize maps an avail-bw reading to the [lo, hi) bucket of the given
// step, modeling the limited resolution of reading numbers off an MRTG
// graph (the paper: "MRTG readings are given as 6-Mb/s ranges").
func Quantize(avail, step float64) (lo, hi float64) {
	if step <= 0 {
		return avail, avail
	}
	n := int(avail / step)
	return float64(n) * step, float64(n+1) * step
}
