// Min-plus direct probing (Liebeherr, Fidler & Valaee): in network
// calculus terms the available bandwidth is the long-term rate of the
// path's min-plus service curve, and a CBR probe at rate r reveals
// which side of that rate it is on — a backlogged system (growing
// delays along the train) means r exceeds the service rate, a clean
// train means it does not. Sweeping an ascending rate grid and taking
// the last clean / first backlogged pair brackets A with one train per
// rate, no stream classification, no loss-abort machinery — the
// independent contrast estimator the scenario grading harness runs next
// to SLoPS.

package baseline

import (
	"fmt"
	"time"

	pathload "repro"
)

// The min-plus train recipe.
const (
	// minPlusTrainLength is the number of packets per CBR train.
	minPlusTrainLength = 60
	// minPlusPacketSize is the probe packet wire size, pathload's
	// stream packet scale.
	minPlusPacketSize = 300
	// minPlusBacklogDelay is the OWD growth across a train that
	// declares it backlogged (compare pathload's PCT/PDT thresholds,
	// which this estimator deliberately does not use).
	minPlusBacklogDelay = time.Millisecond
	// minPlusGap separates consecutive trains so one rate's backlog
	// drains before the next.
	minPlusGap = 300 * time.Millisecond
	// minPlusGrid is the number of probed rates, spaced linearly
	// across (0, maxRate].
	minPlusGrid = 12
)

// MinPlusResult brackets the available bandwidth from one grid sweep.
type MinPlusResult struct {
	// Lo is the highest clean (non-backlogged) rate, Hi the lowest
	// backlogged rate; A is estimated inside [Lo, Hi]. Lo = 0 when
	// even the first rate backlogs; Hi = maxRate when none does.
	Lo, Hi float64
	// Probed counts trains sent; Lost counts probe packets that never
	// arrived (informational — loss does not gate the estimate).
	Probed, Lost int
	// Backlogged reports whether any probed rate was declared
	// backlogged (false means the sweep ran off the top of the grid).
	Backlogged bool
}

// MinPlus sweeps minPlusGrid rates bottom-up across (0, maxRate] and
// returns the bracketing pair. maxRate is required: there is no ADR
// pre-phase here, so the caller supplies the ceiling, e.g. the
// narrow-link capacity. Unlike SLoPS it has no loss-abort rule: a train
// decimated by random loss still votes via whatever packets arrive,
// which is exactly the behavioral difference the lossy scenario grades.
func MinPlus(p pathload.Prober, maxRate float64) (MinPlusResult, error) {
	if !(maxRate > 0) { // NaN too
		return MinPlusResult{}, fmt.Errorf("baseline: min-plus maxRate %v not positive", maxRate)
	}
	res := MinPlusResult{Hi: maxRate}
	step := maxRate / minPlusGrid
	for i := 1; i <= minPlusGrid; i++ {
		rate := float64(i) * step
		period := time.Duration(float64(minPlusPacketSize) * 8 / rate * float64(time.Second))
		spec := pathload.StreamSpec{
			Rate:  rate,
			K:     minPlusTrainLength,
			L:     minPlusPacketSize,
			T:     period,
			Fleet: -1,
			Index: i,
		}
		sr, err := p.SendStream(spec)
		if err != nil {
			return res, fmt.Errorf("baseline: min-plus train %d: %w", i, err)
		}
		res.Probed++
		res.Lost += spec.K - len(sr.OWDs)
		if backlogged(sr) {
			res.Hi = rate
			res.Backlogged = true
			break
		}
		res.Lo = rate
		if err := p.Idle(minPlusGap); err != nil {
			return res, fmt.Errorf("baseline: min-plus gap: %w", err)
		}
	}
	return res, nil
}

// backlogged declares a train backlogged when the mean OWD of its last
// third exceeds the mean of its first third by at least
// minPlusBacklogDelay — the persistent queue growth a rate above the
// service rate must build. A train too decimated to split into thirds
// is conservatively declared backlogged (heavy loss is itself a backlog
// symptom).
func backlogged(sr pathload.StreamResult) bool {
	owds := sr.OWDs // in sequence order, as StreamResult promises
	n := len(owds)
	if n < 9 {
		return true
	}
	third := n / 3
	var head, tail time.Duration
	for i := 0; i < third; i++ {
		head += owds[i].OWD
		tail += owds[n-third+i].OWD
	}
	return (tail-head)/time.Duration(third) >= minPlusBacklogDelay
}
