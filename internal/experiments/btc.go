package experiments

import (
	"repro/internal/crosstraffic"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/tcpsim"
)

// btcPath models the paper's §VII path (Univ-Ioannina → Univ-Delaware):
// an 8.2 Mb/s tight link between faster access links, ≈200 ms quiescent
// RTT, and a drop-tail buffer of ≈175 kB so a saturating TCP connection
// inflates the RTT by up to ≈170 ms — the paper's observed ceiling.
type btcPath struct {
	sim     *netsim.Simulator
	links   []*netsim.Link
	tight   *netsim.Link
	reverse netsim.Time

	crossTCP []*tcpsim.Flow
}

// Interval and probe timing for §VII/§VIII.
const (
	btcIntervalFull = 300 * netsim.Second // five 5-minute intervals
	btcTightCap     = 8_200_000
	// btcBuffer is one bandwidth-delay product: large enough that a
	// Reno halving never idles the link, and giving a ≈200 ms maximum
	// queueing delay — the paper observes RTTs climbing from a 200 ms
	// quiescent point to ≈370 ms.
	btcBuffer  = 210_000
	btcReverse = 100 * netsim.Millisecond
)

// buildBTCPath wires the path and its cross traffic: a non-responsive
// Poisson aggregate (≈3.2 Mb/s) plus two window-limited persistent TCP
// connections (≈1 Mb/s each at the quiescent RTT). The responsive
// flows are the mechanism behind the paper's key §VII finding: a
// saturating BTC connection inflates the path RTT, window-limited
// competitors slow down (throughput = window/RTT), and the BTC
// connection captures more than the formerly available bandwidth.
func buildBTCPath(seed int64) *btcPath {
	sim := netsim.NewSimulator()
	mk := func(name string, capacity float64, buf int) *netsim.Link {
		return netsim.NewLink(sim, name, int64(capacity), 33*netsim.Millisecond, buf)
	}
	links := []*netsim.Link{
		mk("access", 100e6, 0),
		mk("tight", btcTightCap, btcBuffer),
		mk("egress", 100e6, 0),
	}
	tight := links[1]

	agg := crosstraffic.NewAggregate(sim, tight, 1.2e6, 10,
		crosstraffic.ModelPoisson, crosstraffic.Trimodal{}, seed)
	agg.Start()

	p := &btcPath{sim: sim, links: links, tight: tight, reverse: btcReverse}
	for i := 0; i < 6; i++ {
		// Window-limited: 16 kB window at ≈200 ms RTT ⇒ ≈0.64 Mb/s
		// each, ≈3.8 Mb/s total. Their throughput is window/RTT, so
		// they shed load as soon as anything inflates the tight link's
		// queue — the responsiveness behind the paper's BTC overshoot.
		f := tcpsim.NewFlow(sim, "cross-tcp", []*netsim.Link{tight}, 167*netsim.Millisecond, 16_000)
		f.Start()
		p.crossTCP = append(p.crossTCP, f)
	}
	return p
}

// btcWindow is the BTC connection's advertised window: about 1.8× the
// path BDP — "sufficiently large" in the paper's sense (the transfer is
// network-limited, parking a nearly full standing queue at the tight
// link) — while finite as any real 2002 receiver socket was. A window
// far above BDP+buffer would instead alternate between burst losses
// and deep AIMD troughs, idling the link it is supposed to saturate.
const btcWindow = 370_000

// A BTCInterval is one 5-minute interval of the §VII experiment.
type BTCInterval struct {
	Name      string  // "A".."E"
	BTCActive bool    // BTC connection running (B and D)
	Avail     float64 // MRTG avail-bw of the tight link, bits/s
	// BTC throughput during the interval: the 5-minute mean and the
	// min/max of 1-second bins (the paper's high short-term
	// variability observation).
	BTCMean, BTCMin1s, BTCMax1s float64
}

// A BTCResult aggregates Figs. 15 and 16.
type BTCResult struct {
	Intervals []BTCInterval
	// Overshoot is mean BTC throughput over the B and D intervals
	// divided by the mean avail-bw of the surrounding quiet intervals,
	// minus 1 — the paper reports ≈ +20–30%.
	Overshoot float64
	// RTT statistics (Fig. 16), in seconds: the quiescent intervals'
	// mean versus the BTC intervals' mean, 95th percentile, and max.
	RTTQuiet, RTTBusyMean, RTTBusyP95, RTTBusyMax float64
	// RTTSeries is the full 1-second ping record for rendering.
	RTTSeries []tcpsim.PingSample
}

// A btcExperiment is the frame Figs. 15–18 share: the §VII path warmed
// up, its tight link metered once per interval, and a pinger.
type btcExperiment struct {
	*btcPath
	interval netsim.Time
	ping     *tcpsim.Pinger
}

// newBTCExperiment builds the path from seed, warms it up, and starts a
// pinger that probes every pingEvery.
func newBTCExperiment(opt Options, seed int64, pingEvery netsim.Time) *btcExperiment {
	e := &btcExperiment{btcPath: buildBTCPath(seed), interval: opt.window(btcIntervalFull, 30*netsim.Second)}
	e.sim.RunFor(warmup)
	e.ping = tcpsim.NewPinger(e.sim, e.links, e.reverse, pingEvery, 64)
	e.ping.Start()
	return e
}

// btcIntervalNames are the five intervals A–E; the load under test
// runs during B and D.
var btcIntervalNames = []string{"A", "B", "C", "D", "E"}

func btcBusy(name string) bool { return name == "B" || name == "D" }

// run plays intervals A–E, each starting where the previous one ended.
// busy(i, end) drives busy interval i to about end — it may overrun, as
// a probing interval that ends with its last pathload run does; a quiet
// interval just runs for e.interval. It returns each interval's MRTG
// avail-bw, the tight link's meter read at the interval's actual end,
// and the ping RTTs, in seconds, of the quiet and of the busy intervals.
func (e *btcExperiment) run(busy func(i int, end netsim.Time)) (avail, quietRTT, busyRTT []float64) {
	avail = make([]float64, len(btcIntervalNames))
	meter := netsim.NewMeter(e.tight)
	for i, name := range btcIntervalNames {
		pingStart := len(e.ping.Samples())
		if btcBusy(name) {
			busy(i, e.sim.Now()+e.interval)
		} else {
			e.sim.RunFor(e.interval)
		}
		avail[i] = meter.Read().Avail
		for _, s := range e.ping.Samples()[pingStart:] {
			if btcBusy(name) {
				busyRTT = append(busyRTT, s.RTT.Seconds())
			} else {
				quietRTT = append(quietRTT, s.RTT.Seconds())
			}
		}
	}
	return avail, quietRTT, busyRTT
}

// Fig15and16 reproduces Figs. 15 and 16: a 25-minute experiment in five
// intervals A–E, with a greedy BTC connection running during B and D.
// Expected shape: the BTC throughput exceeds the quiet intervals'
// avail-bw by roughly a quarter; MRTG avail-bw collapses to near zero
// while the BTC runs; RTTs inflate from the quiescent ≈200 ms toward
// ≈370 ms with heavy jitter.
func Fig15and16(opt Options) BTCResult {
	opt = opt.withDefaults()
	e := newBTCExperiment(opt, opt.runSeed(150), netsim.Second)

	res := BTCResult{Intervals: make([]BTCInterval, len(btcIntervalNames))}
	avail, quietRTT, busyRTT := e.run(func(i int, end netsim.Time) {
		start := e.sim.Now()
		flow := tcpsim.NewFlow(e.sim, "btc-"+btcIntervalNames[i], e.links, e.reverse, btcWindow)
		delivered0 := flow.Delivered()
		flow.Start()
		e.sim.Run(end)
		flow.Stop()
		iv := &res.Intervals[i]
		iv.BTCMean = float64(flow.Delivered()-delivered0) * 8 / (e.sim.Now() - start).Seconds()
		iv.BTCMin1s, iv.BTCMax1s = binThroughput(flow.Deliveries(), start, e.sim.Now())
	})

	var quietAvail, busyMean []float64
	for i, name := range btcIntervalNames {
		iv := &res.Intervals[i]
		iv.Name, iv.BTCActive, iv.Avail = name, btcBusy(name), avail[i]
		if iv.BTCActive {
			busyMean = append(busyMean, iv.BTCMean)
		} else {
			quietAvail = append(quietAvail, iv.Avail)
		}
	}
	if m := stats.Mean(quietAvail); m > 0 {
		res.Overshoot = stats.Mean(busyMean)/m - 1
	}
	res.RTTQuiet = stats.Mean(quietRTT)
	res.RTTBusyMean = stats.Mean(busyRTT)
	if len(busyRTT) > 0 {
		res.RTTBusyP95 = stats.Percentile(busyRTT, 95)
		_, res.RTTBusyMax = stats.MinMax(busyRTT)
	}
	res.RTTSeries = e.ping.Samples()
	return res
}

// binThroughput reduces a delivery series to the min and max 1-second
// throughput within [start, end).
func binThroughput(points []tcpsim.DeliveryPoint, start, end netsim.Time) (min, max float64) {
	if end <= start {
		return 0, 0
	}
	nbins := int((end - start) / netsim.Second)
	if nbins == 0 {
		nbins = 1
	}
	bins := make([]float64, nbins)
	var prev int64
	for _, pt := range points {
		if pt.At < start {
			prev = pt.Bytes
			continue
		}
		if pt.At >= end {
			break
		}
		idx := int((pt.At - start) / netsim.Second)
		if idx >= nbins {
			idx = nbins - 1
		}
		bins[idx] += float64(pt.Bytes-prev) * 8
		prev = pt.Bytes
	}
	min, max = bins[0], bins[0]
	for _, b := range bins[1:] {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	return min, max
}
