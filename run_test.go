package pathload_test

import (
	"math"
	"testing"
	"time"

	pathload "repro"
)

// TestRunControllerErrorKeepsPartialResult: when the controller rejects
// the (post-init-probe) configuration, Run must still report the init
// probe's cost — Elapsed, Bits, and the measured ADR — because the
// Monitor advances its path-local clock by Result.Elapsed on errored
// rounds and tsstore documents that contract ("Run reports the probing
// time it consumed before the error").
func TestRunControllerErrorKeepsPartialResult(t *testing.T) {
	p := &fakePath{avail: 5e6}
	// A negative Resolution slips through config validation (only zero
	// is replaced by the default) and is rejected by the controller —
	// after the init probe has already spent probing time.
	res, err := pathload.Run(p, pathload.Config{Resolution: -1})
	if err == nil {
		t.Fatal("negative Resolution accepted")
	}
	if res.Elapsed <= 0 {
		t.Errorf("errored run reports Elapsed = %v, want the init probe's probing time", res.Elapsed)
	}
	if res.ADR <= 0 {
		t.Errorf("errored run reports ADR = %v, want the init probe's measurement", res.ADR)
	}
	if res.Bits <= 0 {
		t.Errorf("errored run reports Bits = %v, want the init probe's load", res.Bits)
	}
}

// TestRunClampsInitialRateToADR: a user-supplied InitialRate that
// validates against the static rate bounds must not fail the run when
// the measured ADR pulls MaxRate below it — it is zeroed like a stale
// MinRate, and the search proceeds from the bracket midpoint.
func TestRunClampsInitialRateToADR(t *testing.T) {
	// fakePath ramps OWDs by 100µs per packet above its avail-bw, so the
	// 120 Mb/s init train disperses to an ADR of 60 Mb/s: MaxRate is
	// tightened to 75 Mb/s (ADR·ADRMargin), below the 100 Mb/s
	// InitialRate that the 120 Mb/s generation limit had admitted.
	p := &fakePath{avail: 5e6}
	res, err := pathload.Run(p, pathload.Config{
		PacketsPerStream: 8,
		StreamsPerFleet:  3,
		InitialRate:      100e6,
	})
	if err != nil {
		t.Fatalf("InitialRate above the ADR cap failed the run: %v", err)
	}
	if res.ADR < 50e6 || res.ADR > 70e6 {
		t.Fatalf("ADR = %.1f Mb/s, want ≈ 60 (the test's premise)", res.ADR/1e6)
	}
	if res.Lo-pathload.DefaultResolution > 5e6 || res.Hi+pathload.DefaultResolution < 5e6 {
		t.Errorf("range [%.1f, %.1f] Mb/s misses avail-bw 5", res.Lo/1e6, res.Hi/1e6)
	}
	if len(res.Fleets) > 0 && res.Fleets[0].Rate >= 75e6 {
		t.Errorf("first fleet probed at %.1f Mb/s, want below the ADR-tightened MaxRate", res.Fleets[0].Rate/1e6)
	}
}

// lossScript is a prober whose stream i of fleet 0 loses a scripted
// fraction of its packets (between DefaultModerateLoss and
// DefaultStreamAbortLoss when lossy[i] is true) and shows a scripted trend: kinds[i] picks a
// clean ramp, flat OWDs or a sender flag, and streams beyond kinds are
// flat, so with no kinds only the loss policy can abort the fleet.
type lossScript struct {
	lossy []bool
	kinds []pathload.StreamKind
}

func (s *lossScript) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	drop := 0
	if spec.Index < len(s.lossy) && s.lossy[spec.Index] {
		// 5% loss: moderately lossy (> 3%), below the 10% abort level.
		drop = spec.K / 20
	}
	kind := pathload.StreamNonIncreasing
	if spec.Index < len(s.kinds) {
		kind = s.kinds[spec.Index]
	}
	res := pathload.StreamResult{Sent: spec.K, Flagged: kind == pathload.StreamDiscarded}
	for i := 0; i < spec.K-drop; i++ {
		owd := 5 * time.Millisecond
		if kind == pathload.StreamIncreasing {
			owd += time.Duration(i) * 100 * time.Microsecond
		}
		res.OWDs = append(res.OWDs, pathload.OWDSample{Seq: i, OWD: owd})
	}
	return res, nil
}

func (s *lossScript) Idle(d time.Duration) error { return nil }
func (s *lossScript) RTT() time.Duration         { return time.Millisecond }

// runLossFleet drives exactly one fleet over the scripted prober and
// returns its trace.
func runLossFleet(t *testing.T, lossy []bool) pathload.FleetTrace {
	t.Helper()
	return runScriptedFleet(t, &lossScript{lossy: lossy}, 12, 0)
}

// runScriptedFleet drives exactly one fleet of at most n streams with
// agreement fraction f (0 is the default) over p.
func runScriptedFleet(t *testing.T, p pathload.Prober, n int, f float64) pathload.FleetTrace {
	t.Helper()
	res, err := pathload.Run(p, pathload.Config{
		PacketsPerStream: 100,
		StreamsPerFleet:  n,
		FleetFraction:    f,
		MaxFleets:        1,
		DisableInitProbe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fleets) != 1 {
		t.Fatalf("%d fleets, want 1", len(res.Fleets))
	}
	return res.Fleets[0]
}

// TestModerateLossPolicyBoundaries pins the online majority rule: the
// fleet aborts at the earliest stream where at least two and a strict
// majority of the streams so far are moderately lossy — and not before
// — and a fleet that does not abort stops once it is settled: the
// script's flat streams all vote non-increasing, so the trend vote is
// decided at stream 9 of 12 (9 ≥ 0.7·12), and the fleet ends there or
// at the first later stream where the streams left, all lossy, could no
// longer make a majority (rem ≤ sent − 2·lossy).
func TestModerateLossPolicyBoundaries(t *testing.T) {
	cases := []struct {
		name        string
		lossy       []bool
		wantAbort   bool
		wantStreams int
	}{
		// One moderately lossy stream is tolerated: the two-stream
		// quorum keeps a single unlucky stream from condemning a fleet.
		// Settled at stream 9: 3 more lossy streams would make 4 of 12.
		{"single lossy stream", []bool{true}, false, 9},
		// Two lossy of two: majority established at stream 2 — the
		// earliest possible abort.
		{"first two lossy", []bool{true, true}, true, 2},
		// Lossy, clean, lossy: 2 of 3 is a strict majority at stream 3.
		{"majority at three", []bool{true, false, true}, true, 3},
		// Alternating clean-first never reaches a strict majority
		// (exactly half at every even count), but keeps one within
		// reach past the decided vote: at stream 9 (4 lossy) three more
		// would make 7 of 12, at stream 10 (5 lossy) two more likewise;
		// only at stream 11 is the last stream unable to tip it (6 of 12).
		{"exact half never aborts", []bool{false, true, false, true, false, true, false, true, false, true, false, true}, false, 11},
		// Three lossy streams late in the fleet do not delay the exit: at
		// 9 (3 lossy) three more would make 6 of 12, not a strict
		// majority — settled at the decided vote.
		{"three lossy late", []bool{false, false, false, false, false, false, true, true, true}, false, 9},
		// Four of the first nine lossy: at 9 three more make 7 of 12, at
		// 10 two more make 6 of 12 — settled one stream late.
		{"loss majority still reachable at nine", []bool{false, true, false, false, true, false, true, false, true}, false, 10},
		// 5 of the first 5 lossy — the ISSUE's motivating case — must
		// abort long before the old full-fleet rule's 7th lossy stream.
		{"early lossy run", []bool{true, true, true, true, true}, true, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			trace := runLossFleet(t, c.lossy)
			if got := trace.Verdict == pathload.FleetAborted; got != c.wantAbort {
				t.Errorf("aborted = %v, want %v", got, c.wantAbort)
			}
			if len(trace.Streams) != c.wantStreams {
				t.Errorf("fleet sent %d streams, want %d", len(trace.Streams), c.wantStreams)
			}
		})
	}
}

// adrScript scripts the init probe's train: the Fleet == -1 stream gets
// the canned OWD samples, fleet streams get flat full trains so the
// measurement finishes immediately after.
type adrScript struct {
	owds []pathload.OWDSample
}

func (s *adrScript) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	if spec.Fleet < 0 {
		return pathload.StreamResult{Sent: spec.K, OWDs: s.owds}, nil
	}
	res := pathload.StreamResult{Sent: spec.K}
	for i := 0; i < spec.K; i++ {
		res.OWDs = append(res.OWDs, pathload.OWDSample{Seq: i, OWD: 5 * time.Millisecond})
	}
	return res, nil
}

func (s *adrScript) Idle(d time.Duration) error { return nil }
func (s *adrScript) RTT() time.Duration         { return time.Millisecond }

// TestInitProbeADRLossRobust pins the ADR formula on a lossy train:
// (lastSeq−firstSeq)·L·8 over the seq span plus the added dispersion —
// NOT the naive (received−1)·L·8 over first-to-last arrival, which
// understates the rate when packets between the survivors are lost.
func TestInitProbeADRLossRobust(t *testing.T) {
	cfg := pathload.Config{
		PacketsPerStream: 8,
		StreamsPerFleet:  3,
		MaxFleets:        1,
	}
	// The init train probes at the generation limit; recover its exact
	// stream parameters from the same exported helpers Run uses.
	l, period := cfg.StreamParams(cfg.GenerationLimit())

	// A 20-packet train with a constant 50 µs of added dispersion per
	// packet, packets 3–9 and 15 lost: survivors still span seq 0…19.
	const disp = 50 * time.Microsecond
	var owds []pathload.OWDSample
	received := 0
	for i := 0; i < 20; i++ {
		if (i >= 3 && i <= 9) || i == 15 {
			continue
		}
		owds = append(owds, pathload.OWDSample{Seq: i, OWD: 5*time.Millisecond + time.Duration(i)*disp})
		received++
	}

	res, err := pathload.Run(&adrScript{owds: owds}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	span := 19*period + 19*disp
	want := 19 * float64(l) * 8 / span.Seconds()
	if got := res.ADR; got < want*0.999 || got > want*1.001 {
		t.Errorf("ADR = %.3f Mb/s, want %.3f (seq-span formula)", got/1e6, want/1e6)
	}
	// The formula the stale comment described: a count of received
	// packets over the same span. Losses make it a different number —
	// the implementation must not drift back to it.
	naive := float64(received-1) * float64(l) * 8 / span.Seconds()
	if rel := math.Abs(res.ADR-naive) / want; rel < 0.2 {
		t.Errorf("ADR %.3f Mb/s indistinguishable from the naive received-count formula %.3f on a lossy train", res.ADR/1e6, naive/1e6)
	}
}

// TestRunReportsProbeBits: Bits must count every emitted packet's wire
// size, init stream included.
func TestRunReportsProbeBits(t *testing.T) {
	p := &fakePath{avail: 5e6}
	res, err := pathload.Run(p, pathload.Config{PacketsPerStream: 8, StreamsPerFleet: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(pathload.DefaultInitProbePackets*1500) * 8 // init train at the 1500B generation limit
	for _, f := range res.Fleets {
		want += float64(len(f.Streams)*8*f.L) * 8
	}
	if res.Bits != want {
		t.Errorf("Bits = %.0f, want %.0f (init + fleet streams)", res.Bits, want)
	}
}
