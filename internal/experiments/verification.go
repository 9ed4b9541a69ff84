package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/netsim"
	"repro/internal/simprobe"
	"repro/internal/stats"
	"repro/internal/tsstore"

	pathload "repro"
)

// A VerificationRun is one of the paper's Fig. 10 experiments: an
// MRTG-style averaged reading of the tight link versus the
// duration-weighted average of back-to-back pathload runs over the same
// span (Eq. 11).
type VerificationRun struct {
	Run int
	// MRTGAvail is the exact avail-bw of the tight link over the span
	// of the back-to-back runs;
	// MRTGLo/MRTGHi quantize it to the 6 Mb/s reading buckets the
	// paper could extract from the graphs.
	MRTGAvail      float64
	MRTGLo, MRTGHi float64
	// PathloadAvg is the Eq. 11 duration-weighted average of the range
	// centers; WLo/WHi weight the bounds the same way.
	PathloadAvg float64
	WLo, WHi    float64
	PathloadN   int // pathload runs completed inside the window
	// Within reports the paper's acceptance criterion: the weighted
	// pathload estimate falls inside the quantized MRTG reading.
	Within bool
}

// Fig10Window is the MRTG averaging window (the paper's 5 minutes).
const Fig10Window = 300 * netsim.Second

// MRTGQuantum is the reading resolution of the paper's MRTG graphs.
const MRTGQuantum = 6e6

// Fig10 reproduces Fig. 10: twelve independent verification runs on a
// path whose tight link (155 Mb/s OC-3) is distinct from its narrow
// link (100 Mb/s Fast Ethernet). For each run the tight link's
// utilization is drawn afresh, pathload runs back-to-back for the full
// MRTG window, and the weighted average is compared with the quantized
// MRTG reading. The paper finds 10 of 12 within the MRTG range with the
// two misses marginal.
func Fig10(opt Options) []VerificationRun {
	opt = opt.withDefaults()
	window := opt.window(Fig10Window, 30*netsim.Second)
	const runs = 12

	out := make([]VerificationRun, runs)
	forRuns(runs, func(r int) {
		rng := rand.New(rand.NewSource(opt.runSeed(r) ^ 0xf16))
		// 46–93 Mb/s avail on the OC-3, always below the narrow link's
		// 95 Mb/s so the OC-3 stays the tight link MRTG should match.
		util := 0.40 + rng.Float64()*0.30

		sim, links := hopPath(opt.runSeed(r),
			wanHop{"fast-ethernet(narrow)", 100e6, 0.05},
			wanHop{"oc3(tight)", 155e6, util},
			wanHop{"backbone", 622e6, 0.10})
		tight := links[1]
		sim.RunFor(warmup)

		meter := netsim.NewMeter(tight)
		prober := simprobe.New(sim, links, 10*netsim.Millisecond)

		// Back-to-back pathload runs until the window closes (Eq. 11).
		end := sim.Now() + window
		var centers, los, his, weights []float64
		for sim.Now() < end {
			res, err := pathload.Run(prober, pathload.Config{})
			if err != nil {
				panic(fmt.Sprintf("experiments: fig10 run %d: %v", r, err))
			}
			centers = append(centers, res.Mid())
			los = append(los, res.Lo)
			his = append(his, res.Hi)
			weights = append(weights, res.Elapsed.Seconds())
		}
		// Read when the last run ends: the reading spans exactly the
		// runs Eq. 11 weights.
		avail := meter.Read().Avail
		lo, hi := tsstore.Quantize(avail, MRTGQuantum)
		v := VerificationRun{
			Run:         r,
			MRTGAvail:   avail,
			MRTGLo:      lo,
			MRTGHi:      hi,
			PathloadAvg: stats.WeightedMean(centers, weights),
			WLo:         stats.WeightedMean(los, weights),
			WHi:         stats.WeightedMean(his, weights),
			PathloadN:   len(centers),
		}
		v.Within = v.PathloadAvg >= lo && v.PathloadAvg <= hi
		out[r] = v
	})
	return out
}
