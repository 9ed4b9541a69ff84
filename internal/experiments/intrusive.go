package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/simprobe"
	"repro/internal/stats"
	"repro/internal/tcpsim"

	pathload "repro"
)

// An IntrusiveInterval is one 5-minute interval of the §VIII
// experiment: pathload runs during B and D, nothing during A, C, E.
type IntrusiveInterval struct {
	Name           string
	PathloadActive bool
	Avail          float64 // MRTG avail-bw of the tight link, bits/s
	Runs           int     // pathload runs completed
	MeanEstimate   float64 // mean of the pathload range centers
}

// An IntrusiveResult aggregates Figs. 17 and 18.
type IntrusiveResult struct {
	Intervals []IntrusiveInterval
	// AvailChange is mean avail during pathload intervals over mean
	// avail during quiet intervals, minus 1. The paper finds no
	// measurable decrease.
	AvailChange float64
	// RTT means in seconds for quiet versus pathload intervals
	// (100 ms probes, Fig. 18), and their relative change.
	RTTQuiet, RTTBusy float64
	RTTChange         float64
	// ProbeStreamsLost counts probe streams that saw any loss; the
	// paper reports none.
	ProbeStreamsLost int
	PingsLost        int
	RTTSeries        []tcpsim.PingSample
}

// Fig17and18 reproduces Figs. 17 and 18: the §VII experiment repeated
// with pathload in place of the BTC connection. Expected shape: the
// avail-bw and the 100-ms RTT series are statistically indistinguishable
// across quiet and probing intervals, no probe stream suffers loss, and
// no ping is lost — pathload is non-intrusive where a BTC transfer is
// anything but.
func Fig17and18(opt Options) IntrusiveResult {
	opt = opt.withDefaults()
	e := newBTCExperiment(opt, opt.runSeed(170), 100*netsim.Millisecond)
	prober := simprobe.New(e.sim, e.links, e.reverse)

	res := IntrusiveResult{Intervals: make([]IntrusiveInterval, len(btcIntervalNames))}
	avail, quietRTT, busyRTT := e.run(func(i int, end netsim.Time) {
		var centers []float64
		for e.sim.Now() < end {
			r, err := pathload.Run(prober, pathload.Config{})
			if err != nil {
				panic(fmt.Sprintf("experiments: fig17 interval %s: %v", btcIntervalNames[i], err))
			}
			// The real tool spends a few seconds between runs on
			// reporting and control-channel setup.
			prober.Idle(5 * netsim.Second.Duration())
			centers = append(centers, r.Mid())
			for _, ft := range r.Fleets {
				for _, st := range ft.Streams {
					if st.Loss > 0 {
						res.ProbeStreamsLost++
					}
				}
			}
		}
		res.Intervals[i].Runs = len(centers)
		res.Intervals[i].MeanEstimate = stats.Mean(centers)
	})

	var quietAvail, busyAvail []float64
	for i, name := range btcIntervalNames {
		iv := &res.Intervals[i]
		iv.Name, iv.PathloadActive, iv.Avail = name, btcBusy(name), avail[i]
		if iv.PathloadActive {
			busyAvail = append(busyAvail, iv.Avail)
		} else {
			quietAvail = append(quietAvail, iv.Avail)
		}
	}

	// Let in-flight pings land before accounting losses.
	e.ping.Stop()
	e.sim.RunFor(2 * netsim.Second)

	if m := stats.Mean(quietAvail); m > 0 {
		res.AvailChange = stats.Mean(busyAvail)/m - 1
	}
	res.RTTQuiet = stats.Mean(quietRTT)
	res.RTTBusy = stats.Mean(busyRTT)
	if res.RTTQuiet > 0 {
		res.RTTChange = res.RTTBusy/res.RTTQuiet - 1
	}
	res.PingsLost = e.ping.Sent() - len(e.ping.Samples())
	res.RTTSeries = e.ping.Samples()
	return res
}
