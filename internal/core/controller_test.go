package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// defaultCfg is a paper-like controller configuration.
func defaultCfg() ControllerConfig {
	return ControllerConfig{MaxRate: 120e6, Resolution: 1e6, GreyResolution: 1.5e6}
}

// drive runs the controller against a deterministic oracle for a fixed
// avail-bw until termination, returning the result and fleet count.
func drive(t *testing.T, cfg ControllerConfig, availBw float64) Result {
	t.Helper()
	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	for i := 0; !ctrl.Done(); i++ {
		if i > 200 {
			t.Fatalf("controller did not terminate after 200 fleets (bounds %v)", ctrl)
		}
		if ctrl.Rate() > availBw {
			ctrl.Record(VerdictAbove)
		} else {
			ctrl.Record(VerdictBelow)
		}
	}
	return ctrl.Result()
}

// TestConvergesToConstantAvailBw: with a perfect oracle the final
// bracket must contain A and meet the resolution.
func TestConvergesToConstantAvailBw(t *testing.T) {
	for _, a := range []float64{0.5e6, 4e6, 37e6, 74e6, 119e6} {
		res := drive(t, defaultCfg(), a)
		if a < res.Lo || a > res.Hi {
			t.Errorf("A=%v: bracket [%v, %v] misses it", a, res.Lo, res.Hi)
		}
		if res.Hi-res.Lo > defaultCfg().Resolution+1 {
			t.Errorf("A=%v: width %v exceeds resolution", a, res.Hi-res.Lo)
		}
		if res.GreySet {
			t.Errorf("A=%v: spurious grey region", a)
		}
	}
}

// TestQuickConvergence is the property form over random avail-bws and
// resolutions.
func TestQuickConvergence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := ControllerConfig{
			MaxRate:        10e6 + rng.Float64()*990e6,
			Resolution:     0.1e6 + rng.Float64()*5e6,
			GreyResolution: 0.1e6 + rng.Float64()*5e6,
		}
		a := rng.Float64() * cfg.MaxRate
		ctrl, err := NewController(cfg)
		if err != nil {
			return false
		}
		for i := 0; !ctrl.Done(); i++ {
			if i > 500 {
				return false
			}
			if ctrl.Rate() > a {
				ctrl.Record(VerdictAbove)
			} else {
				ctrl.Record(VerdictBelow)
			}
		}
		res := ctrl.Result()
		return res.Lo <= a && a <= res.Hi && res.Hi-res.Lo <= cfg.Resolution+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTerminationIsLogarithmic: the binary search must need about
// log2(MaxRate/ω) fleets, not more.
func TestTerminationIsLogarithmic(t *testing.T) {
	res := drive(t, defaultCfg(), 37.3e6)
	bound := int(math.Ceil(math.Log2(120e6/1e6))) + 2
	if res.Fleets > bound {
		t.Fatalf("%d fleets for a clean binary search, want ≤ %d", res.Fleets, bound)
	}
}

// TestGreyRegionConvergence drives the controller against an oracle
// whose avail-bw fluctuates in a band: the final avail-bw bracket must
// cover the band within the grey resolution.
func TestGreyRegionConvergence(t *testing.T) {
	lo, hi := 30e6, 40e6
	cfg := defaultCfg()
	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !ctrl.Done(); i++ {
		if i > 200 {
			t.Fatal("no termination with grey band")
		}
		r := ctrl.Rate()
		switch {
		case r > hi:
			ctrl.Record(VerdictAbove)
		case r < lo:
			ctrl.Record(VerdictBelow)
		default:
			ctrl.Record(VerdictGrey)
		}
	}
	res := ctrl.Result()
	if !res.GreySet {
		t.Fatal("no grey region detected for a fluctuating avail-bw")
	}
	if res.Lo > lo || res.Hi < hi-cfg.GreyResolution {
		t.Errorf("bracket [%v, %v] does not cover band [%v, %v]", res.Lo, res.Hi, lo, hi)
	}
	if res.Hi-res.GreyHi > cfg.GreyResolution+1 || res.GreyLo-res.Lo > cfg.GreyResolution+1 {
		t.Errorf("termination violated χ: bounds [%v %v] grey [%v %v]", res.Lo, res.Hi, res.GreyLo, res.GreyHi)
	}
}

// TestQuickGreyConvergence is the property form over random bands.
func TestQuickGreyConvergence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := defaultCfg()
		lo := rng.Float64() * 100e6
		hi := lo + rng.Float64()*(cfg.MaxRate-lo)
		ctrl, err := NewController(cfg)
		if err != nil {
			return false
		}
		for i := 0; !ctrl.Done(); i++ {
			if i > 500 {
				return false
			}
			r := ctrl.Rate()
			switch {
			case r > hi:
				ctrl.Record(VerdictAbove)
			case r < lo:
				ctrl.Record(VerdictBelow)
			default:
				ctrl.Record(VerdictGrey)
			}
		}
		res := ctrl.Result()
		// The bracket must contain the band's interior.
		mid := (lo + hi) / 2
		return res.Lo <= mid && mid <= res.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAbortedMeansRateTooHigh: an aborted fleet must lower Rmax.
func TestAbortedMeansRateTooHigh(t *testing.T) {
	ctrl, err := NewController(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := ctrl.Rate()
	ctrl.Record(VerdictAborted)
	if _, hi := ctrl.Bounds(); hi != r {
		t.Fatalf("after abort at %v, Rmax = %v, want the aborted rate", r, hi)
	}
}

// TestHitMaxFlag: an avail-bw above MaxRate leaves HitMax set.
func TestHitMaxFlag(t *testing.T) {
	res := drive(t, defaultCfg(), 500e6)
	if !res.HitMax {
		t.Fatal("HitMax not set when A exceeds MaxRate")
	}
	if res.HitMin {
		t.Fatal("HitMin spuriously set")
	}
	res = drive(t, defaultCfg(), 0) // everything above
	if !res.HitMin {
		t.Fatal("HitMin not set when A is 0")
	}
}

// TestGreyClamping: verdicts that contradict the grey region must
// shrink or discard it rather than leave an inconsistent state.
func TestGreyClamping(t *testing.T) {
	ctrl, err := NewController(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Record(VerdictGrey) // grey at 60 Mb/s
	g1, g2, set := ctrl.Grey()
	if !set || g1 != 60e6 || g2 != 60e6 {
		t.Fatalf("grey = [%v, %v] set=%v after first grey fleet", g1, g2, set)
	}
	// Now probe above the grey region and say "below": Rmin rises past
	// the whole grey region, which must be discarded.
	for !ctrl.Done() {
		if ctrl.Rate() >= 100e6 {
			break
		}
		ctrl.Record(VerdictBelow)
	}
	if _, _, set := ctrl.Grey(); set {
		lo, hi, _ := ctrl.Grey()
		rmin, _ := ctrl.Bounds()
		if hi < rmin || lo < rmin {
			t.Fatalf("grey [%v, %v] left below Rmin %v", lo, hi, rmin)
		}
	}
}

// TestInvariantLoLeHi is the structural property: at every step
// Rmin ≤ Rmax and any grey region is inside them.
func TestInvariantLoLeHi(t *testing.T) {
	f := func(seed int64, script []uint8) bool {
		ctrl, err := NewController(defaultCfg())
		if err != nil {
			return false
		}
		for _, b := range script {
			if ctrl.Done() {
				break
			}
			ctrl.Record(FleetVerdict(b % 4))
			lo, hi := ctrl.Bounds()
			if lo > hi {
				return false
			}
			if glo, ghi, set := ctrl.Grey(); set && (glo < lo || ghi > hi || glo > ghi) {
				return false
			}
			if !ctrl.Done() && (ctrl.Rate() < lo || ctrl.Rate() > hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordAfterDoneIsNoOp documents idempotent termination.
func TestRecordAfterDoneIsNoOp(t *testing.T) {
	res := drive(t, defaultCfg(), 4e6)
	ctrl, _ := NewController(defaultCfg())
	for !ctrl.Done() {
		if ctrl.Rate() > 4e6 {
			ctrl.Record(VerdictAbove)
		} else {
			ctrl.Record(VerdictBelow)
		}
	}
	before := ctrl.Result()
	ctrl.Record(VerdictAbove)
	after := ctrl.Result()
	if before != after {
		t.Fatalf("Record after Done changed the result: %+v vs %+v", before, after)
	}
	_ = res
}

// TestConfigValidation covers every rejected configuration.
func TestConfigValidation(t *testing.T) {
	base := defaultCfg()
	bad := []ControllerConfig{
		{}, // no MaxRate
		{MaxRate: -1, Resolution: 1, GreyResolution: 1},
		{MaxRate: 10, MinRate: 10, Resolution: 1, GreyResolution: 1},
		{MaxRate: 10, MinRate: -1, Resolution: 1, GreyResolution: 1},
		{MaxRate: 10, Resolution: 0, GreyResolution: 1},
		{MaxRate: 10, Resolution: 1, GreyResolution: 0},
		{MaxRate: 10, Resolution: 1, GreyResolution: 1, InitialRate: 10},
	}
	for i, cfg := range bad {
		if _, err := NewController(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewController(base); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestInitialRate checks the override.
func TestInitialRate(t *testing.T) {
	cfg := defaultCfg()
	cfg.InitialRate = 10e6
	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Rate() != 10e6 {
		t.Fatalf("initial rate %v, want 10e6", ctrl.Rate())
	}
}
