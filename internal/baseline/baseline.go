// Package baseline implements the avail-bw estimator the paper argues
// against (§II): cprobe-style packet-train dispersion (Carter &
// Crovella 1996). The dispersion method sends a long back-to-back train
// and reports trainBits/arrivalSpan as the "available bandwidth"; the
// paper (citing Dovrolis et al. 2001) shows this actually measures the
// asymptotic dispersion rate (ADR), a quantity between the avail-bw A
// and the capacity C. Reproducing that separation is part of the
// paper's motivation, so the baseline lives here as a first-class
// implementation over the same Prober interface pathload uses.
package baseline

import (
	"fmt"
	"time"

	pathload "repro"
)

// The cprobe recipe: a fixed train, as the paper describes it (§II).
const (
	// cprobeTrains is the number of trains averaged (cprobe used
	// several).
	cprobeTrains = 8
	// cprobeTrainLength is the number of packets per train, a "long
	// train" in the paper's sense.
	cprobeTrainLength = 60
	// cprobePacketSize is the probe packet wire size, the MTU: large
	// packets maximize the dispersion signal.
	cprobePacketSize = 1500
	// cprobePeriod is the packet interspacing, back-to-back at MTU
	// size.
	cprobePeriod = 100 * time.Microsecond
	// cprobeRate is the injection rate in bits/s that cprobePeriod
	// gives: 120 Mb/s.
	cprobeRate = cprobePacketSize * 8 * float64(time.Second) / float64(cprobePeriod)
	// cprobeGap separates consecutive trains.
	cprobeGap = 500 * time.Millisecond
)

// CprobeResult is the dispersion estimate.
type CprobeResult struct {
	// Estimate is the mean dispersion rate across trains, the number
	// cprobe would report as "available bandwidth".
	Estimate float64
	// TrainRates are the per-train dispersion rates.
	TrainRates []float64
	// Lost counts packets that never arrived across all trains.
	Lost int
}

// Cprobe measures the train-dispersion "avail-bw" over any pathload
// prober. On a path where the tight link carries cross traffic the
// estimate converges to the ADR, which systematically exceeds the true
// avail-bw — the comparison experiment (cmd/repro -fig baseline)
// quantifies by how much.
func Cprobe(p pathload.Prober) (CprobeResult, error) {
	var res CprobeResult
	for i := 0; i < cprobeTrains; i++ {
		spec := pathload.StreamSpec{
			Rate:  cprobeRate,
			K:     cprobeTrainLength,
			L:     cprobePacketSize,
			T:     cprobePeriod,
			Fleet: -1,
			Index: i,
		}
		sr, err := p.SendStream(spec)
		if err != nil {
			return res, fmt.Errorf("baseline: train %d: %w", i, err)
		}
		res.Lost += spec.K - len(sr.OWDs)
		if rate, ok := sr.DispersionRate(spec); ok {
			res.TrainRates = append(res.TrainRates, rate)
		}
		if err := p.Idle(cprobeGap); err != nil {
			return res, fmt.Errorf("baseline: inter-train gap: %w", err)
		}
	}
	if len(res.TrainRates) == 0 {
		return res, fmt.Errorf("baseline: no usable trains out of %d", cprobeTrains)
	}
	var sum float64
	for _, r := range res.TrainRates {
		sum += r
	}
	res.Estimate = sum / float64(len(res.TrainRates))
	return res, nil
}
