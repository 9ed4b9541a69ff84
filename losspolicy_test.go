package pathload_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"

	pathload "repro"
)

// onlineAbortStream simulates the documented fleet loop on a scripted
// lossy vector whose streams all vote non-increasing (the zero
// StreamType), at the default f = 0.7. It returns the number of streams
// actually sent and whether the fleet aborted.
func onlineAbortStream(lossy []bool) (streams int, aborted bool) {
	return onlineFleet(make([]core.StreamType, len(lossy)), lossy, core.DefaultFleetFraction)
}

// onlineFleet is the documented fleet loop, a thin walk over rules
// proved elsewhere. After each stream: the fleet aborts if at least two
// and a strict majority of the streams so far are moderately lossy;
// otherwise it stops, with the verdict of the streams sent, once the
// trend vote is decided (core.FleetDecided, proved against every
// completion by core's TestFleetDecidedExhaustive) and the streams left,
// all lossy, could no longer make that majority (rem ≤ sent − 2·lossy,
// proved with it by TestFleetSettledExhaustive).
func onlineFleet(kinds []core.StreamType, lossy []bool, f float64) (streams int, aborted bool) {
	n := len(lossy)
	cum := 0
	for i := range lossy {
		sent, rem := i+1, n-i-1
		if lossy[i] {
			cum++
			if lossMajority(cum, sent) {
				return sent, true
			}
		}
		if rem <= sent-2*cum && core.FleetDecided(kinds[:sent], rem, f) {
			return sent, false
		}
	}
	return n, false
}

// lossMajority is the online abort condition: at least two, and a
// strict majority, of the streams sent so far are moderately lossy.
func lossMajority(lossy, sent int) bool { return lossy >= 2 && 2*lossy > sent }

// lossAbortsUnstopped applies the online loss rule to a fleet that
// sends all its streams whatever they vote.
func lossAbortsUnstopped(lossy []bool) bool {
	cum := 0
	for i := range lossy {
		if lossy[i] {
			cum++
			if lossMajority(cum, i+1) {
				return true
			}
		}
	}
	return false
}

// fullFleetAbort is the paper's §V-A fleet-level rule evaluated after
// the fact: abort iff a strict majority of all N streams was
// moderately lossy.
func fullFleetAbort(lossy []bool) bool {
	cum := 0
	for _, l := range lossy {
		if l {
			cum++
		}
	}
	return 2*cum > len(lossy)
}

// TestLossPolicyCalibration sweeps loss regimes — per-stream moderate-
// loss probabilities from 0 to 0.9 — and calibrates the online
// majority-so-far abort rule against the full-fleet rule it
// approximates:
//
//  1. The implementation (pathload.Run) agrees with the documented
//     fleet loop exactly — streams sent and abort verdict — on every
//     scripted vector. (A fleet that does not abort stops once it is
//     settled, so "streams sent" is at most N.)
//  2. Dominance: whenever the full-fleet rule would abort, the online
//     rule also aborts, after at most N streams — the online rule
//     never lets a majority-lossy fleet run to completion.
//  3. Quorum boundary: the online rule never aborts on fewer than two
//     lossy streams, and any abort point has a strict majority of
//     lossy streams so far.
//
// The sweep also quantifies what the online rule buys: the mean number
// of streams saved per aborted fleet in each regime (logged, not
// asserted — the savings are a property of the regime, the agreement
// is the contract).
func TestLossPolicyCalibration(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(7))
	for _, p := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		trials, aborts, saved := 0, 0, 0
		fullAborts := 0
		for trial := 0; trial < 40; trial++ {
			lossy := make([]bool, n)
			for i := range lossy {
				lossy[i] = rng.Float64() < p
			}
			trials++

			wantStreams, wantAbort := onlineAbortStream(lossy)

			// 1. The implementation matches the documented rule
			// exactly: same abort decision at the same stream.
			trace := runLossFleet(t, lossy)
			gotAbort := trace.Verdict == pathload.FleetAborted
			if gotAbort != wantAbort || len(trace.Streams) != wantStreams {
				t.Fatalf("p=%.1f trial %d lossy=%v: Run sent %d streams (abort=%v), documented rule says %d (abort=%v)",
					p, trial, lossy, len(trace.Streams), gotAbort, wantStreams, wantAbort)
			}

			// 2. Dominance over the full-fleet rule.
			if fullFleetAbort(lossy) {
				fullAborts++
				if !wantAbort {
					t.Fatalf("p=%.1f trial %d lossy=%v: full-fleet rule aborts but online rule completed",
						p, trial, lossy)
				}
				if wantStreams > n {
					t.Fatalf("p=%.1f trial %d: online abort after %d > N streams", p, trial, wantStreams)
				}
				saved += n - wantStreams
			}

			// 3. Quorum boundaries at the abort point.
			if wantAbort {
				aborts++
				cum := 0
				for i := 0; i < wantStreams; i++ {
					if lossy[i] {
						cum++
					}
				}
				if cum < 2 {
					t.Fatalf("p=%.1f trial %d: aborted on %d lossy streams, quorum is 2", p, trial, cum)
				}
				if 2*cum <= wantStreams {
					t.Fatalf("p=%.1f trial %d: aborted without a strict majority (%d of %d)", p, trial, cum, wantStreams)
				}
				// And it was the earliest such stream: one stream prior
				// the condition must not hold.
				prevCum := cum
				if lossy[wantStreams-1] {
					prevCum--
				}
				if wantStreams > 1 && prevCum >= 2 && 2*prevCum > wantStreams-1 {
					t.Fatalf("p=%.1f trial %d: abort at stream %d was not the earliest", p, trial, wantStreams)
				}
			}
		}
		if fullAborts > 0 {
			t.Logf("p=%.1f: %d/%d fleets aborted online (%d under the full-fleet rule); online abort saves %.1f streams per majority-lossy fleet",
				p, aborts, trials, fullAborts, float64(saved)/float64(fullAborts))
		} else {
			t.Logf("p=%.1f: %d/%d fleets aborted online; none were majority-lossy over all %d streams", p, aborts, trials, n)
		}
	}
}

// TestSettledExitMatchesFullFleet drives seeded-random fleets of twelve
// streams — every mix of increasing, non-increasing and discarded
// streams, each moderately lossy or not, over five agreement fractions
// — through pathload.Run and holds it to the full-fleet reference: the
// verdict is what sending all twelve streams, applying the online loss
// rule after each and then ClassifyFleet would have given. The stream
// count is the documented loop's (onlineFleet). The exhaustive tests
// prove the rule never wrong and never late; this one proves runFleet
// is wired to it.
func TestSettledExitMatchesFullFleet(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(19))
	early, saved := 0, 0
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		f := []float64{0.5, 0.6, 0.7, 0.9, 1.0}[rng.Intn(5)]
		// A fleet leans towards one camp, as real fleets do; a uniform
		// draw would make nearly every fleet grey.
		pInc, pDiscard, pLossy := rng.Float64(), 0.2*rng.Float64(), 0.5*rng.Float64()
		kinds := make([]core.StreamType, n)
		script := &lossScript{lossy: make([]bool, n), kinds: kinds}
		for i := range kinds {
			switch {
			case rng.Float64() < pDiscard:
				kinds[i] = core.TypeDiscard
			case rng.Float64() < pInc:
				kinds[i] = core.TypeIncreasing
			default:
				kinds[i] = core.TypeNonIncreasing
			}
			script.lossy[i] = rng.Float64() < pLossy
		}

		// Reference: all n streams, the online loss rule, ClassifyFleet.
		want := pathload.FleetAborted
		if !lossAbortsUnstopped(script.lossy) {
			want = core.ClassifyFleet(kinds, f)
		}
		wantStreams, _ := onlineFleet(kinds, script.lossy, f)

		trace := runScriptedFleet(t, script, n, f)
		for i, st := range trace.Streams {
			if st.Kind != script.kinds[i] {
				t.Fatalf("trial %d stream %d classified %v, scripted %v", trial, i, st.Kind, script.kinds[i])
			}
		}
		if trace.Verdict != want || len(trace.Streams) != wantStreams {
			t.Fatalf("trial %d f=%v kinds=%v lossy=%v: Run sent %d streams for %v; the full fleet gives %v and the documented loop stops at %d",
				trial, f, kinds, script.lossy, len(trace.Streams), trace.Verdict, want, wantStreams)
		}
		if want != pathload.FleetAborted && wantStreams < n {
			early++
			saved += n - wantStreams
		}
	}
	if early == 0 {
		t.Fatal("no trial left its fleet early; the sweep does not exercise the exit")
	}
	t.Logf("%d of %d fleets stopped before stream %d, saving %.1f streams each", early, trials, n, float64(saved)/float64(early))
}

// TestLossPolicySingleStreamAbort pins the other loss boundary: one
// stream above DefaultStreamAbortLoss (10%) condemns the fleet immediately,
// independent of the majority machinery.
func TestLossPolicySingleStreamAbort(t *testing.T) {
	res, err := pathload.Run(&heavyLossScript{abortOn: 2}, pathload.Config{
		PacketsPerStream: 100,
		StreamsPerFleet:  12,
		MaxFleets:        1,
		DisableInitProbe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Fleets[0]
	if trace.Verdict != pathload.FleetAborted {
		t.Fatalf("verdict = %v, want aborted", trace.Verdict)
	}
	if len(trace.Streams) != 3 {
		t.Fatalf("streams = %d, want 3 (abort at the heavy-loss stream)", len(trace.Streams))
	}
}

// heavyLossScript drops 20% of one scripted stream — above the 10%
// single-stream abort level — and nothing elsewhere.
type heavyLossScript struct {
	abortOn int
}

func (s *heavyLossScript) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	drop := 0
	if spec.Index == s.abortOn {
		drop = spec.K / 5
	}
	res := pathload.StreamResult{Sent: spec.K}
	for i := 0; i < spec.K-drop; i++ {
		res.OWDs = append(res.OWDs, pathload.OWDSample{Seq: i, OWD: 5 * time.Millisecond})
	}
	return res, nil
}

func (s *heavyLossScript) Idle(d time.Duration) error { return nil }
func (s *heavyLossScript) RTT() time.Duration         { return time.Millisecond }
