package schedule

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// fakeHistory is a scripted History. Its roster answers Seat; a nil
// roster is a fleet of one.
type fakeHistory struct {
	roster   []string
	last     Round
	haveLast bool
	rho      float64
	haveRho  bool
}

func (h *fakeHistory) Seat(path string) (int, int) {
	if h.roster == nil {
		return 0, 1
	}
	return slices.Index(h.roster, path), len(h.roster)
}

func (h *fakeHistory) LastRound(string) (Round, bool)               { return h.last, h.haveLast }
func (h *fakeHistory) RelVar(string, time.Duration) (float64, bool) { return h.rho, h.haveRho }

// legacyGap reproduces the pre-scheduler monitor's jitter draw for one
// path: rng from seed ⊕ FNV-1a(path), f = 1 + J·(2u−1).
func legacyGaps(seed int64, path string, interval time.Duration, jitter float64, n int) []time.Duration {
	h := fnv.New64a()
	h.Write([]byte(path))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	out := make([]time.Duration, n)
	for i := range out {
		if interval <= 0 {
			out[i] = 0
			continue
		}
		if jitter == 0 {
			out[i] = interval
			continue
		}
		f := 1 + jitter*(2*rng.Float64()-1)
		out[i] = time.Duration(f * float64(interval))
	}
	return out
}

// TestFixedMatchesLegacyMonitorGaps: Fixed must reproduce the original
// monitor's jittered schedule byte-identically — same per-path RNG
// derivation, same draws, in the same order — including the cases that
// consume no randomness (zero interval, zero jitter). This guards the
// PR 1/PR 3 determinism contract across the scheduler refactor.
func TestFixedMatchesLegacyMonitorGaps(t *testing.T) {
	const interval = 50 * time.Millisecond
	for _, seed := range []int64{1, 7, 424242} {
		f := &Fixed{Interval: interval, Jitter: 0.3, Seed: seed}
		// Interleave paths to prove per-path stream independence: the
		// draw order across paths must not matter.
		paths := []string{"path-00", "path-01", "zebra"}
		got := map[string][]time.Duration{}
		for i := 0; i < 12; i++ {
			p := paths[i%len(paths)]
			gap, ok := f.Next(p, nil)
			if !ok {
				t.Fatal("Fixed ended a session")
			}
			got[p] = append(got[p], gap)
		}
		for _, p := range paths {
			want := legacyGaps(seed, p, interval, 0.3, len(got[p]))
			for i := range got[p] {
				if got[p][i] != want[i] {
					t.Fatalf("seed %d %s draw %d: gap %v, want legacy %v", seed, p, i, got[p][i], want[i])
				}
			}
		}
	}

	// Seed 0 must behave as seed 1 (MonitorConfig.Seed's default).
	f0 := &Fixed{Interval: interval, Jitter: 0.3}
	f1 := &Fixed{Interval: interval, Jitter: 0.3, Seed: 1}
	for i := 0; i < 4; i++ {
		g0, _ := f0.Next("p", nil)
		g1, _ := f1.Next("p", nil)
		if g0 != g1 {
			t.Fatalf("draw %d: seed 0 gap %v != seed 1 gap %v", i, g0, g1)
		}
	}

	// No randomness is consumed when none is needed.
	fz := &Fixed{Interval: 0, Jitter: 0.5, Seed: 9}
	if gap, ok := fz.Next("p", nil); gap != 0 || !ok {
		t.Fatalf("zero interval: gap %v ok %v, want 0 true", gap, ok)
	}
	fj := &Fixed{Interval: interval, Seed: 9}
	if gap, _ := fj.Next("p", nil); gap != interval {
		t.Fatalf("zero jitter: gap %v, want the exact interval", gap)
	}
	if len(fz.rngs) != 0 || len(fj.rngs) != 0 {
		t.Fatal("a draw-free Next consumed a jitter stream")
	}
}

// TestAdaptiveMonotoneInRho: higher ρ must never lengthen the gap, the
// clamp must hold at both ends, and missing feedback must fall back to
// Base.
func TestAdaptiveMonotoneInRho(t *testing.T) {
	a := &Adaptive{Base: time.Second}
	min, max := a.Bounds()
	if min != 250*time.Millisecond || max != 4*time.Second {
		t.Fatalf("default clamp [%v, %v], want [Base/4, 4·Base]", min, max)
	}

	prev := time.Duration(1 << 62)
	for _, rho := range []float64{0.001, 0.01, 0.1, 0.3, 0.6, 1.2, 5, 50} {
		gap, ok := a.Next("p", &fakeHistory{rho: rho, haveRho: true})
		if !ok {
			t.Fatal("Adaptive ended a session")
		}
		if gap > prev {
			t.Errorf("ρ %.3f: gap %v longer than the lower-ρ gap %v (must be monotone)", rho, gap, prev)
		}
		if gap < min || gap > max {
			t.Errorf("ρ %.3f: gap %v outside clamp [%v, %v]", rho, gap, min, max)
		}
		prev = gap
	}

	if gap, _ := a.Next("p", &fakeHistory{rho: 0.0001, haveRho: true}); gap != max {
		t.Errorf("near-zero ρ: gap %v, want the Max clamp %v", gap, max)
	}
	if gap, _ := a.Next("p", &fakeHistory{rho: 100, haveRho: true}); gap != min {
		t.Errorf("huge ρ: gap %v, want the Min clamp %v", gap, min)
	}
	if gap, _ := a.Next("p", &fakeHistory{rho: 0, haveRho: true}); gap != max {
		t.Errorf("ρ == 0 (steady series): gap %v, want the Max clamp %v", gap, max)
	}
	if gap, _ := a.Next("p", &fakeHistory{}); gap != a.Base {
		t.Errorf("no feedback: gap %v, want Base %v", gap, a.Base)
	}
	if gap, _ := a.Next("p", &fakeHistory{rho: DefaultRefRelVar, haveRho: true}); gap != a.Base {
		t.Errorf("ρ == Ref: gap %v, want Base %v", gap, a.Base)
	}
}

// TestBudgetedHoldsRateInEveryWindow simulates one path's session
// against a Budgeted scheduler and checks the token-bucket invariant:
// the bits injected in ANY virtual-time window never exceed the path's
// share times the window length plus the documented slack (one
// in-flight round).
func TestBudgetedHoldsRateInEveryWindow(t *testing.T) {
	const share = 1e6 // 1 Mb per virtual second
	b := &Budgeted{Inner: &Fixed{Interval: 10 * time.Millisecond}, Rate: share}

	type round struct {
		start, end time.Duration
		bits       float64
	}
	var rounds []round
	h := &fakeHistory{}
	at := time.Duration(0)
	maxBits := 0.0
	// Vary the per-round cost wildly: cheap rounds forfeit their unspent
	// share, a 5-Mb round forces a long repayment idle.
	costs := []float64{3e5, 3e5, 5e6, 1e5, 8e5, 2e6, 1e5, 1e5, 4e6, 6e5, 2e5, 2e5}
	for i, bits := range costs {
		span := 20 * time.Millisecond
		rounds = append(rounds, round{start: at, end: at + span, bits: bits})
		if bits > maxBits {
			maxBits = bits
		}
		h.last = Round{Round: i, At: at, Span: span, Bits: bits}
		h.haveLast = true
		gap, ok := b.Next("p", h)
		if !ok {
			t.Fatal("Budgeted ended the session")
		}
		if gap < 10*time.Millisecond {
			t.Fatalf("round %d: gap %v shorter than the inner schedule's", i, gap)
		}
		at += span + gap
	}

	// Check every window spanned by round boundaries.
	slack := maxBits
	for i := range rounds {
		var sum float64
		for j := i; j < len(rounds); j++ {
			sum += rounds[j].bits
			window := (rounds[j].end - rounds[i].start).Seconds()
			if sum > share*window+slack {
				t.Errorf("window rounds %d..%d (%.2fs): %.0f bits exceeds share %.0f·w + slack %.0f",
					i, j, window, sum, share, slack)
			}
		}
	}

	// A cheap schedule must pass through untouched: rounds well under
	// the share never stretch the inner gap.
	cheap := &Budgeted{Inner: &Fixed{Interval: 50 * time.Millisecond}, Rate: 1e6}
	hc := &fakeHistory{last: Round{At: 0, Span: time.Second, Bits: 1e5}, haveLast: true}
	if gap, _ := cheap.Next("p", hc); gap != 50*time.Millisecond {
		t.Errorf("under-budget round stretched the gap to %v", gap)
	}
}

// TestBudgetedChargesResumedFirstRound: a bucket accrues from its first
// charged round's start, not from path-local time 0. A session resumed
// an hour into its clock (a monitor restarted on a lease change) is not
// credited that hour, so its first round is charged exactly as a fresh
// session's: 2 Mb over a 1 s round at 1 Mb/s leaves 1 s to repay.
func TestBudgetedChargesResumedFirstRound(t *testing.T) {
	firstGap := func(at time.Duration) time.Duration {
		b := &Budgeted{Inner: &Fixed{Interval: 100 * time.Millisecond}, Rate: 1e6}
		gap, _ := b.Next("p", &fakeHistory{last: Round{At: at, Span: time.Second, Bits: 2e6}, haveLast: true})
		return gap
	}
	if fresh := firstGap(0); fresh != time.Second {
		t.Fatalf("fresh first round: gap %v, want 1s", fresh)
	}
	if resumed := firstGap(time.Hour); resumed != time.Second {
		t.Fatalf("first round resumed at 1h: gap %v, want the fresh round's 1s", resumed)
	}
}

// TestBudgetedSharesAreDeterministicPerPath: a path's gaps depend only
// on its own history — interleaving a second path's calls must not
// change them.
func TestBudgetedSharesAreDeterministicPerPath(t *testing.T) {
	mk := func() *Budgeted {
		return &Budgeted{Inner: &Fixed{Interval: time.Millisecond}, Rate: 2e6}
	}
	hist := func(i int, bits float64) *fakeHistory {
		at := time.Duration(i) * 30 * time.Millisecond
		return &fakeHistory{roster: []string{"a", "b"}, last: Round{Round: i, At: at, Span: 10 * time.Millisecond, Bits: bits}, haveLast: true}
	}

	solo := mk()
	var want []time.Duration
	for i := 0; i < 5; i++ {
		gap, _ := solo.Next("a", hist(i, 1e6))
		want = append(want, gap)
	}

	mixed := mk()
	for i := 0; i < 5; i++ {
		// Path b's expensive rounds interleave with a's.
		if _, ok := mixed.Next("b", hist(i, 9e6)); !ok {
			t.Fatal("b's session ended")
		}
		gap, _ := mixed.Next("a", hist(i, 1e6))
		if gap != want[i] {
			t.Fatalf("round %d: a's gap %v changed to %v when b interleaved", i, want[i], gap)
		}
	}
}

// TestUntilEndsSessionsAtHorizon: Until defers to the inner schedule
// while the horizon is open and ends the session at the first round
// ending past it.
func TestUntilEndsSessionsAtHorizon(t *testing.T) {
	u := &Until{Inner: &Fixed{Interval: time.Second}, Horizon: time.Minute}
	if gap, ok := u.Next("p", &fakeHistory{}); !ok || gap != time.Second {
		t.Fatalf("before any round: gap %v ok %v, want the inner schedule", gap, ok)
	}
	open := &fakeHistory{last: Round{At: 58 * time.Second, Span: time.Second}, haveLast: true}
	if _, ok := u.Next("p", open); !ok {
		t.Fatal("session ended a second before the horizon")
	}
	done := &fakeHistory{last: Round{At: 59 * time.Second, Span: time.Second}, haveLast: true}
	if _, ok := u.Next("p", done); ok {
		t.Fatal("session kept running at the horizon")
	}
}

// TestValidateRejectsNonFinite: NaN or ±Inf in any exported float
// field of a valid scheduler fails Validate. NaN used to pass every
// range check written as x < lo || x > hi.
func TestValidateRejectsNonFinite(t *testing.T) {
	valid := []func() Scheduler{
		func() Scheduler { return &Fixed{Interval: time.Second} },
		func() Scheduler { return &Adaptive{Base: time.Second} },
		func() Scheduler { return &Budgeted{Inner: &Fixed{}, Rate: 1e6} },
	}
	for _, mk := range valid {
		v := reflect.ValueOf(mk()).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() || f.Type.Kind() != reflect.Float64 {
				continue
			}
			for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				s := mk()
				reflect.ValueOf(s).Elem().Field(i).SetFloat(x)
				if err := Validate(s); err == nil {
					t.Errorf("%s.%s = %v accepted", v.Type().Name(), f.Name, x)
				}
				if err := Validate(&Until{Inner: s}); err == nil {
					t.Errorf("Until{%s.%s = %v} accepted", v.Type().Name(), f.Name, x)
				}
			}
		}
	}
}

// TestValidate pins the static configuration checks.
func TestValidate(t *testing.T) {
	good := []Scheduler{
		nil,
		&Fixed{Interval: time.Second, Jitter: 0.5},
		&Adaptive{Base: time.Second},
		&Budgeted{Inner: &Fixed{}, Rate: 1e6},
		&Until{Inner: &Adaptive{Base: time.Second}, Horizon: time.Minute},
	}
	for _, s := range good {
		if err := Validate(s); err != nil {
			t.Errorf("Validate(%T) = %v, want nil", s, err)
		}
	}
	bad := []Scheduler{
		&Fixed{Jitter: 1.5},
		&Adaptive{},
		&Adaptive{Base: time.Second, Min: time.Hour, Max: time.Second},
		&Budgeted{Rate: 1e6},
		&Budgeted{Inner: &Fixed{}},
		&Budgeted{Inner: &Adaptive{}, Rate: 1e6}, // invalid inner
		&Until{Horizon: time.Minute},
	}
	for _, s := range bad {
		if err := Validate(s); err == nil {
			t.Errorf("Validate(%#v) accepted an invalid scheduler", s)
		}
	}
}
