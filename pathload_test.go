package pathload_test

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fluid"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// TestConfigDefaults: the zero config must select the paper's values.
func TestConfigDefaults(t *testing.T) {
	cfg := pathload.Config{}
	if got := cfg.GenerationLimit(); got != 120e6 {
		t.Errorf("GenerationLimit = %v, want 120 Mb/s (1500B/100µs)", got)
	}
	l, tt := cfg.StreamParams(48e6)
	if l != 600 || tt != 100*time.Microsecond {
		t.Errorf("StreamParams(48 Mb/s) = %dB, %v; want 600B, 100µs", l, tt)
	}
}

// TestConfigSlack: the bracketing tolerance is ω + χ of the defaulted
// config — a zero resolution reads as its default on its own, not only
// when both are zero (pathload -monitor -omega 0 used to grade with
// 0 + χ = 1.5 Mb/s against a search that terminated at 2.5).
func TestConfigSlack(t *testing.T) {
	for _, c := range []struct {
		name       string
		omega, chi float64
		want       float64
	}{
		{"both set", 2e6, 3e6, 5e6},
		{"omega 0", 0, 3e6, pathload.DefaultResolution + 3e6},
		{"chi 0", 2e6, 0, 2e6 + pathload.DefaultGreyResolution},
		{"both 0", 0, 0, pathload.DefaultResolution + pathload.DefaultGreyResolution},
	} {
		cfg := pathload.Config{Resolution: c.omega, GreyResolution: c.chi}
		if got := cfg.Slack(); got != c.want {
			t.Errorf("%s: Slack() = %v, want %v", c.name, got, c.want)
		}
	}
	if !pathload.Brackets(4e6, 5e6, 2e6, 2.5e6) || pathload.Brackets(4e6, 5e6, 1e6, 2.5e6) ||
		!pathload.Brackets(4e6, 5e6, 7.5e6, 2.5e6) || pathload.Brackets(4e6, 5e6, 7.6e6, 2.5e6) {
		t.Error("Brackets: [4, 5] ± 2.5 must hold 2 and 7.5 and exclude 1 and 7.6")
	}
}

// TestResultHelpers checks Mid/Width/RelVar arithmetic.
func TestResultHelpers(t *testing.T) {
	r := pathload.Result{Lo: 2e6, Hi: 6e6}
	if r.Mid() != 4e6 || r.Width() != 4e6 || r.RelVar() != 1 {
		t.Fatalf("Mid/Width/RelVar = %v/%v/%v", r.Mid(), r.Width(), r.RelVar())
	}
	if (pathload.Result{}).RelVar() != 0 {
		t.Fatal("zero result RelVar not 0")
	}
}

// TestStreamParams pins the §IV parameter selection rules.
func TestStreamParams(t *testing.T) {
	cfg := pathload.Config{}
	for _, tc := range []struct {
		rateMbps float64
		wantL    int
		wantTus  float64 // microseconds
	}{
		{96, 1200, 100},  // L = R·T/8 within bounds
		{120, 1500, 100}, // at the generation limit
		{4, 96, 192},     // L pinned at L_min, T stretched
		{0.5, 96, 1536},  // very low rate: long period
		{150, 1500, 100}, // beyond the limit: capped at MTU/T_min
	} {
		l, tt := cfg.StreamParams(tc.rateMbps * 1e6)
		if l != tc.wantL {
			t.Errorf("rate %v Mb/s: L = %d, want %d", tc.rateMbps, l, tc.wantL)
		}
		if got := float64(tt) / float64(time.Microsecond); math.Abs(got-tc.wantTus) > 0.5 {
			t.Errorf("rate %v Mb/s: T = %v, want %vµs", tc.rateMbps, tt, tc.wantTus)
		}
	}
}

// TestQuickStreamParamsInvariants: for any positive rate, L stays in
// [L_min, MTU], T ≥ T_min, and the effective rate never exceeds the
// request by more than byte rounding.
func TestQuickStreamParamsInvariants(t *testing.T) {
	cfg := pathload.Config{}
	f := func(raw float64) bool {
		rate := math.Abs(math.Mod(raw, 200e6))
		if rate < 1e4 {
			rate = 1e4
		}
		l, tt := cfg.StreamParams(rate)
		if l < pathload.DefaultMinPacket || l > pathload.DefaultMTU {
			return false
		}
		if tt < pathload.DefaultMinPeriod {
			return false
		}
		eff := float64(l) * 8 / tt.Seconds()
		limit := cfg.GenerationLimit()
		return eff <= math.Min(rate, limit)*1.02+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestConfigValidation covers rejected configurations.
func TestConfigValidation(t *testing.T) {
	bad := []pathload.Config{
		{PacketsPerStream: 2},
		{StreamsPerFleet: -1},
		{FleetFraction: 1.5},
		{MinPacket: 2000, MTU: 1500},
		{MinPeriod: -time.Microsecond},
		{MinRate: 10e6, MaxRate: 5e6},
	}
	for i, cfg := range bad {
		if _, err := pathload.Run(&fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// fluidProber is a deterministic in-memory prober backed by the
// analytical fluid model: streams above the path's avail-bw get exact
// linear OWD trends, streams below get flat OWDs. It lets the full Run
// loop be tested without a simulator.
type fluidProber struct {
	path    fluid.Path
	streams int
	idle    time.Duration
	// failAfter, if positive, makes SendStream fail once that many
	// streams have been sent.
	failAfter int
	// lossRate, if set, drops that fraction of every stream's packets.
	lossRate float64
	// flagAll marks every stream as sender-flagged.
	flagAll bool
}

func (f *fluidProber) RTT() time.Duration { return 10 * time.Millisecond }

func (f *fluidProber) Idle(d time.Duration) error {
	f.idle += d
	return nil
}

func (f *fluidProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	f.streams++
	if f.failAfter > 0 && f.streams > f.failAfter {
		return pathload.StreamResult{}, errors.New("prober exhausted")
	}
	owds := fluid.StreamOWDs(spec.EffectiveRate(), spec.L, spec.K, f.path)
	res := pathload.StreamResult{Sent: spec.K, Flagged: f.flagAll}
	drop := int(f.lossRate * float64(spec.K))
	for i, owd := range owds {
		if drop > 0 && i%(spec.K/max(drop, 1)+1) == 0 {
			continue
		}
		res.OWDs = append(res.OWDs, pathload.OWDSample{Seq: i, OWD: time.Duration(owd * 1e9)})
	}
	return res, nil
}

// TestRunConvergesOnFluidOracle: against the noise-free fluid model the
// tool must bracket the avail-bw within the resolution, with no grey
// region.
func TestRunConvergesOnFluidOracle(t *testing.T) {
	for _, a := range []float64{2e6, 4e6, 37e6, 74e6} {
		p := &fluidProber{path: fluid.Path{{C: 155e6, A: a}}}
		res, err := pathload.Run(p, pathload.Config{})
		if err != nil {
			t.Fatalf("A=%v: %v", a, err)
		}
		if !pathload.Brackets(res.Lo, res.Hi, a, 0) {
			t.Errorf("A=%.0f: range [%.0f, %.0f] misses it", a, res.Lo, res.Hi)
		}
		if res.Width() > pathload.DefaultResolution+1 {
			t.Errorf("A=%.0f: width %.0f exceeds ω", a, res.Width())
		}
		if res.GreySet {
			t.Errorf("A=%.0f: spurious grey region under a noise-free oracle", a)
		}
	}
}

// TestQuickRunConvergence is the property form over random single-link
// paths.
func TestQuickRunConvergence(t *testing.T) {
	f := func(seed int64) bool {
		c := 5e6 + float64(uint64(seed)%150_000_000)
		a := float64(uint64(seed/7)%uint64(c*0.9)) + 0.05*c
		p := &fluidProber{path: fluid.Path{{C: c, A: a}}}
		res, err := pathload.Run(p, pathload.Config{})
		if err != nil {
			return false
		}
		// Packet sizes are whole bytes, so effective stream rates are
		// quantized to 8/T_min = 80 kb/s steps; the bracket can sit up
		// to one step beyond A when A falls between representable
		// rates.
		const grid = 80e3
		if res.HitMax {
			// a exceeded the probing or ADR ceiling; Hi is a lower
			// bound and bracketing is not required above it.
			return a >= res.Lo-grid
		}
		return res.Lo-grid <= a && a <= res.Hi+grid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRunMultiHopFluid exercises Proposition 2: on a multi-hop path
// the tool must still find the minimum avail-bw.
func TestRunMultiHopFluid(t *testing.T) {
	path := fluid.Path{
		{C: 622e6, A: 500e6},
		{C: 100e6, A: 95e6},
		{C: 155e6, A: 74e6}, // tight
		{C: 622e6, A: 400e6},
	}
	p := &fluidProber{path: path}
	res, err := pathload.Run(p, pathload.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !pathload.Brackets(res.Lo, res.Hi, 74e6, 0) {
		t.Fatalf("range [%.0f, %.0f] misses the 74 Mb/s tight link", res.Lo, res.Hi)
	}
}

// TestRunADRBound: the init probe must tighten MaxRate to near the
// path's asymptotic dispersion rate.
func TestRunADRBound(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}
	res, err := pathload.Run(p, pathload.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ADR <= 0 {
		t.Fatal("no ADR recorded")
	}
	// Fluid ADR of a saturating train: C·R/(R + C − A) with R = 120M.
	want := 10e6 * 120e6 / (120e6 + 10e6 - 4e6)
	if rel := math.Abs(res.ADR-want) / want; rel > 0.05 {
		t.Errorf("ADR %.2f Mb/s, fluid predicts %.2f", res.ADR/1e6, want/1e6)
	}
	if res.Hi > want*pathload.ADRMargin+1 {
		t.Errorf("Hi %.0f exceeds the ADR-derived ceiling", res.Hi)
	}
}

// TestRunDisableInitProbe: without the init probe the first fleet
// starts from the configured bounds.
func TestRunDisableInitProbe(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}
	res, err := pathload.Run(p, pathload.Config{DisableInitProbe: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ADR != 0 {
		t.Fatalf("ADR %v recorded with the init probe disabled", res.ADR)
	}
	if !pathload.Brackets(res.Lo, res.Hi, 4e6, 0) {
		t.Fatalf("range [%.0f, %.0f] misses 4 Mb/s", res.Lo, res.Hi)
	}
}

// TestRunPCTThresholds: Run classifies every stream by PCT's fixed
// zones (internal/core's 0.60 and 0.45) beside PDT's default ones, and
// PCT's vote counts: on the default simulated path some streams are
// decided by PCT alone, with PDT in its ambiguous band.
func TestRunPCTThresholds(t *testing.T) {
	net := experiments.Topology{Seed: 1}.Build()
	net.Warmup(2 * netsim.Second)
	res, err := pathload.Run(simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond), pathload.Config{})
	if err != nil {
		t.Fatal(err)
	}
	zone := func(v, incr, nonIncr float64) int {
		switch {
		case v > incr:
			return +1
		case v < nonIncr:
			return -1
		}
		return 0
	}
	pctDecided := 0
	for _, f := range res.Fleets {
		for _, s := range f.Streams {
			if s.Loss > pathload.DefaultStreamAbortLoss {
				continue // discarded unclassified
			}
			pct := zone(s.PCT, core.DefaultPCTIncreasing, core.DefaultPCTNonIncreasing)
			pdt := zone(s.PDT, pathload.DefaultPDTIncreasing, pathload.DefaultPDTNonIncreasing)
			want := pathload.StreamDiscarded
			switch {
			case max(pct, pdt) > 0 && min(pct, pdt) >= 0:
				want = pathload.StreamIncreasing
			case min(pct, pdt) < 0 && max(pct, pdt) <= 0:
				want = pathload.StreamNonIncreasing
			}
			if s.Kind != want {
				t.Errorf("stream at %.2f Mb/s with PCT %.2f, PDT %.2f classified %v, want %v", f.Rate/1e6, s.PCT, s.PDT, s.Kind, want)
			}
			if pct != 0 && pdt == 0 {
				pctDecided++
			}
		}
	}
	if pctDecided == 0 {
		t.Error("no stream was decided by PCT alone; the check does not reach PCT's zones")
	}
}

// TestRunAbortsLossyFleets: heavy loss must produce "rate too high"
// behavior, not a bogus estimate from partial streams.
func TestRunAbortsLossyFleets(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}, lossRate: 0.5}
	res, err := pathload.Run(p, pathload.Config{})
	if err != nil {
		t.Fatal(err)
	}
	aborted := 0
	for _, f := range res.Fleets {
		if f.Verdict == pathload.FleetAborted {
			aborted++
		}
	}
	if aborted != len(res.Fleets) {
		t.Fatalf("%d of %d fleets aborted under 50%% loss, want all", aborted, len(res.Fleets))
	}
	if res.Hi > 1e6 {
		t.Errorf("Hi %.2f Mb/s after universal aborts, want driven toward MinRate", res.Hi/1e6)
	}
}

// TestRunDiscardsFlaggedStreams: sender-flagged streams must not vote,
// so an all-flagged measurement aborts every fleet.
func TestRunDiscardsFlaggedStreams(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}, flagAll: true}
	res, err := pathload.Run(p, pathload.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Fleets {
		if f.Verdict != pathload.FleetAborted {
			t.Fatalf("fleet verdict %v with every stream flagged, want aborted", f.Verdict)
		}
		for _, s := range f.Streams {
			if s.Kind != pathload.StreamDiscarded {
				t.Fatalf("stream kind %v, want discarded", s.Kind)
			}
		}
	}
}

// TestRunPropagatesProberErrors: transport failures surface as errors
// with context, not silent misestimates.
func TestRunPropagatesProberErrors(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}, failAfter: 5}
	_, err := pathload.Run(p, pathload.Config{})
	if err == nil {
		t.Fatal("prober failure swallowed")
	}
}

// TestRunElapsedAccounting: Elapsed must cover stream durations plus
// inter-stream idles.
func TestRunElapsedAccounting(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}
	res, err := pathload.Run(p, pathload.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < p.idle {
		t.Fatalf("Elapsed %v below accumulated idle %v", res.Elapsed, p.idle)
	}
}

// TestRunFleetTraceShape sanity-checks the search log. Against the
// noise-free oracle every fleet is unanimous, so with N = 6 and
// f = 0.7 it is decided — and stops — at the fifth stream: five
// agreeing streams are 5 ≥ 0.7·6 whatever the sixth does, four are not.
func TestRunFleetTraceShape(t *testing.T) {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}
	cfg := pathload.Config{StreamsPerFleet: 6}
	res, err := pathload.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fleets) == 0 {
		t.Fatal("no fleets logged")
	}
	for i, f := range res.Fleets {
		if len(f.Streams) != 5 {
			t.Errorf("fleet %d logged %d streams, want 5 of at most 6", i, len(f.Streams))
		}
		if f.Rate <= 0 || f.L <= 0 || f.T <= 0 || f.Delta <= 0 {
			t.Errorf("fleet %d has zero-valued parameters: %+v", i, f)
		}
		if f.Delta < 9*time.Duration(pathload.DefaultPacketsPerStream)*f.T {
			t.Errorf("fleet %d Δ=%v below 9τ", i, f.Delta)
		}
	}
}

// TestResultFormatting covers String and the flag text.
func TestResultFormatting(t *testing.T) {
	r := pathload.Result{Lo: 2e6, Hi: 6e6, GreySet: true, GreyLo: 3e6, GreyHi: 5e6}
	s := r.String()
	for _, want := range []string{"2.00", "6.00", "grey"} {
		if !contains(s, want) {
			t.Errorf("Result.String() = %q missing %q", s, want)
		}
	}
	r.HitMax = true
	if !contains(r.String(), "probe limit") {
		t.Error("HitMax flag not surfaced in String()")
	}
	for _, k := range []pathload.StreamKind{pathload.StreamIncreasing, pathload.StreamNonIncreasing, pathload.StreamDiscarded, pathload.StreamKind(9)} {
		if k.String() == "" {
			t.Errorf("StreamKind %d formats empty", k)
		}
	}
	for _, v := range []pathload.Verdict{pathload.FleetBelow, pathload.FleetAbove, pathload.FleetGrey, pathload.FleetAborted, pathload.Verdict(9)} {
		if v.String() == "" {
			t.Errorf("Verdict %d formats empty", v)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestStreamSpecHelpers covers Duration and EffectiveRate.
func TestStreamSpecHelpers(t *testing.T) {
	s := pathload.StreamSpec{K: 100, L: 1200, T: 100 * time.Microsecond}
	if got := s.Duration(); got != 10*time.Millisecond {
		t.Errorf("Duration = %v, want 10ms", got)
	}
	if got := s.EffectiveRate(); math.Abs(got-96e6) > 1 {
		t.Errorf("EffectiveRate = %v, want 96 Mb/s", got)
	}
	if (pathload.StreamSpec{}).EffectiveRate() != 0 {
		t.Error("zero spec effective rate not 0")
	}
}

// TestStreamResultLossRate covers the loss arithmetic.
func TestStreamResultLossRate(t *testing.T) {
	r := pathload.StreamResult{Sent: 100}
	for i := 0; i < 90; i++ {
		r.OWDs = append(r.OWDs, pathload.OWDSample{Seq: i})
	}
	if got := r.LossRate(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("LossRate = %v, want 0.1", got)
	}
	if (pathload.StreamResult{}).LossRate() != 0 {
		t.Error("zero result loss rate not 0")
	}
}

// TestRunRespectsMaxFleets bounds the search.
func TestRunRespectsMaxFleets(t *testing.T) {
	// A path whose avail-bw sits exactly on fleet-rate boundaries can
	// ping-pong; MaxFleets must still bound the loop.
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}
	res, err := pathload.Run(p, pathload.Config{MaxFleets: 3, Resolution: 1}) // absurd resolution
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fleets) > 3 {
		t.Fatalf("%d fleets with MaxFleets=3", len(res.Fleets))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Example-style doc test for the README quickstart snippet.
func ExampleRun() {
	p := &fluidProber{path: fluid.Path{{C: 10e6, A: 4e6}}}
	res, _ := pathload.Run(p, pathload.Config{})
	fmt.Println(pathload.Brackets(res.Lo, res.Hi, 4e6, 0))
	// Output: true
}
