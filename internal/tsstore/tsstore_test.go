package tsstore_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/schedule"
	"repro/internal/tsstore"

	pathload "repro"
)

// sample builds one OK monitor sample for tests.
func sample(path string, round int, at time.Duration, lo, hi float64) pathload.Sample {
	return pathload.Sample{
		Path: path, Round: round, At: at, Wall: time.Unix(0, 0),
		Result: pathload.Result{Lo: lo, Hi: hi, Elapsed: 100 * time.Millisecond},
	}
}

// TestStoreIsSampleSink pins the wiring contract: a *Store must
// satisfy pathload.SampleSink so MonitorConfig{Store: ...} works.
func TestStoreIsSampleSink(t *testing.T) {
	var _ pathload.SampleSink = tsstore.New(tsstore.Config{})
}

// TestRingWraparound: a capacity-4 ring fed 10 samples retains exactly
// the last 4 in chronological order, while totals keep counting.
func TestRingWraparound(t *testing.T) {
	st := tsstore.New(tsstore.Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		st.Observe(sample("p", i, time.Duration(i)*time.Second, float64(i), float64(i)+2))
	}
	if got := st.Len("p"); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	total, errs := st.Totals("p")
	if total != 10 || errs != 0 {
		t.Fatalf("Totals = %d/%d, want 10/0", total, errs)
	}
	pts := st.Snapshot("p")
	for i, p := range pts {
		wantRound := 6 + i
		if p.Round != wantRound || p.At != time.Duration(wantRound)*time.Second {
			t.Errorf("point %d: round %d @%v, want round %d @%v", i, p.Round, p.At, wantRound, time.Duration(wantRound)*time.Second)
		}
	}
	// The all-time digest survives eviction: its quantiles cover all 10
	// mids (i+1 for i in 0..9), not just the retained 4.
	if got := st.Quantile("p", 0); got != 1 {
		t.Errorf("all-time q0 = %v, want 1 (evicted point)", got)
	}
	if got := st.Quantile("p", 1); got != 10 {
		t.Errorf("all-time q1 = %v, want 10", got)
	}
}

// TestRingExactFill: filling to exactly capacity loses nothing.
func TestRingExactFill(t *testing.T) {
	st := tsstore.New(tsstore.Config{Capacity: 3})
	for i := 0; i < 3; i++ {
		st.Observe(sample("p", i, time.Duration(i)*time.Second, 1e6, 2e6))
	}
	pts := st.Snapshot("p")
	if len(pts) != 3 || pts[0].Round != 0 || pts[2].Round != 2 {
		t.Fatalf("snapshot rounds %v, want [0 1 2]", rounds(pts))
	}
}

func rounds(pts []tsstore.Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = p.Round
	}
	return out
}

// TestQueryWindow: Query selects [from, to) on the At axis.
func TestQueryWindow(t *testing.T) {
	st := tsstore.New(tsstore.Config{})
	for i := 0; i < 5; i++ {
		st.Observe(sample("p", i, time.Duration(i)*time.Second, 1e6, 2e6))
	}
	got := st.Query("p", 1*time.Second, 3*time.Second)
	if len(got) != 2 || got[0].Round != 1 || got[1].Round != 2 {
		t.Fatalf("Query rounds %v, want [1 2]", rounds(got))
	}
	if got := st.Query("p", 10*time.Second, 20*time.Second); got != nil {
		t.Fatalf("out-of-range Query returned %d points", len(got))
	}
	if got := st.Query("nope", 0, time.Hour); got != nil {
		t.Fatalf("unknown-path Query returned %d points", len(got))
	}
}

// TestEmptyWindowAggregation: empty and all-error windows aggregate to
// a zero Aggregate whose Quantile is NaN — never a fake 0 b/s reading.
func TestEmptyWindowAggregation(t *testing.T) {
	st := tsstore.New(tsstore.Config{})
	if a := st.Window("ghost", 0, time.Hour); a.Count != 0 || a.Digest != nil {
		t.Fatalf("empty window: Count=%d Digest=%v", a.Count, a.Digest)
	}
	a := st.Window("ghost", 0, time.Hour)
	if !math.IsNaN(a.Quantile(0.5)) {
		t.Errorf("empty window quantile = %v, want NaN", a.Quantile(0.5))
	}

	// All-failed window: counted, but no bandwidth aggregates.
	st.Observe(pathload.Sample{Path: "p", Round: 0, Err: errors.New("probe lost")})
	st.Observe(pathload.Sample{Path: "p", Round: 1, At: time.Second, Err: errors.New("probe lost")})
	agg := st.Retained("p")
	if agg.Count != 2 || agg.Errors != 2 || agg.Digest != nil {
		t.Fatalf("all-error window: %+v", agg)
	}
	if agg.MinLo != 0 || agg.MaxHi != 0 || agg.MeanMid != 0 {
		t.Errorf("all-error window leaked bandwidth stats: %+v", agg)
	}
	if !math.IsNaN(st.Quantile("p", 0.5)) {
		t.Errorf("all-error path quantile = %v, want NaN", st.Quantile("p", 0.5))
	}
}

// TestAggregateWindow: the windowed stats match hand-computed values,
// including the two ρ flavors (per-point mean vs windowed).
func TestAggregateWindow(t *testing.T) {
	st := tsstore.New(tsstore.Config{})
	// Two points: [2,6] (mid 4, ρ=1) and [6,10] (mid 8, ρ=0.5), Mb/s.
	st.Observe(sample("p", 0, 0, 2e6, 6e6))
	st.Observe(sample("p", 1, time.Second, 6e6, 10e6))
	st.Observe(pathload.Sample{Path: "p", Round: 2, At: 2 * time.Second, Err: errors.New("lost")})

	a := st.Retained("p")
	if a.Count != 3 || a.Errors != 1 {
		t.Fatalf("Count/Errors = %d/%d, want 3/1", a.Count, a.Errors)
	}
	if a.MinLo != 2e6 || a.MaxHi != 10e6 {
		t.Errorf("MinLo/MaxHi = %v/%v, want 2e6/10e6", a.MinLo, a.MaxHi)
	}
	if a.MeanMid != 6e6 {
		t.Errorf("MeanMid = %v, want 6e6", a.MeanMid)
	}
	if a.MeanRelVar != 0.75 {
		t.Errorf("MeanRelVar = %v, want 0.75", a.MeanRelVar)
	}
	// Windowed ρ: (10−2)/((10+2)/2) = 8/6.
	if want := 8.0 / 6.0; math.Abs(a.RelVar-want) > 1e-12 {
		t.Errorf("RelVar = %v, want %v", a.RelVar, want)
	}
	if a.First != 0 || a.Last != time.Second {
		t.Errorf("First/Last = %v/%v, want 0/1s", a.First, a.Last)
	}
	if got := a.Quantile(0.5); got != 6e6 {
		t.Errorf("window median = %v, want 6e6", got)
	}
}

// TestObserveConcurrent: many goroutines feeding distinct and shared
// paths must not lose samples (run under -race in CI).
func TestObserveConcurrent(t *testing.T) {
	st := tsstore.New(tsstore.Config{Capacity: 64})
	const goroutines, each = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				st.Observe(sample(fmt.Sprintf("own-%d", g), i, time.Duration(i)*time.Millisecond, 1e6, 2e6))
				st.Observe(sample("shared", i, time.Duration(i)*time.Millisecond, 1e6, 2e6))
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if total, _ := st.Totals(fmt.Sprintf("own-%d", g)); total != each {
			t.Errorf("own-%d total = %d, want %d", g, total, each)
		}
	}
	if total, _ := st.Totals("shared"); total != goroutines*each {
		t.Errorf("shared total = %d, want %d", total, goroutines*each)
	}
	if got := len(st.Paths()); got != goroutines+1 {
		t.Errorf("Paths() has %d entries, want %d", got, goroutines+1)
	}
}

// TestNewRejectsNegatives: a negative capacity must not silently build
// a store that remembers nothing.
func TestNewRejectsNegatives(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with negative capacity did not panic")
		}
	}()
	tsstore.New(tsstore.Config{Capacity: -1})
}

// BenchmarkStoreObserve measures the monitor-facing ingest path: one
// locked ring push plus a digest insert.
func BenchmarkStoreObserve(b *testing.B) {
	st := tsstore.New(tsstore.Config{})
	s := sample("bench", 0, 0, 4e6, 6e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Round = i
		s.At = time.Duration(i) * time.Millisecond
		s.Result.Lo = 4e6 + float64(i%100)*1e3
		s.Result.Hi = 6e6 + float64(i%100)*1e3
		st.Observe(s)
	}
}

// BenchmarkStoreObserveParallel is the fleet-shaped version: many
// session goroutines feeding distinct paths through one store lock.
func BenchmarkStoreObserveParallel(b *testing.B) {
	st := tsstore.New(tsstore.Config{})
	var id atomic.Int32
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		path := fmt.Sprintf("path-%02d", id.Add(1))
		s := sample(path, 0, 0, 4e6, 6e6)
		i := 0
		for pb.Next() {
			s.Round = i
			s.At = time.Duration(i) * time.Millisecond
			st.Observe(s)
			i++
		}
	})
}

// TestRelVarFeedbackQuery pins the scheduler feedback edge: the
// windowed ρ over the trailing window of path-local time, implementing
// schedule.VarSource.
func TestRelVarFeedbackQuery(t *testing.T) {
	var _ schedule.VarSource = tsstore.New(tsstore.Config{})

	st := tsstore.New(tsstore.Config{})
	if _, ok := st.RelVar("ghost", 0); ok {
		t.Error("unknown path answered a ρ query")
	}

	// A volatile early history, then a quiet recent stretch: the full
	// series has a wide envelope, the trailing window a narrow one.
	st.Observe(sample("p", 0, 0, 2e6, 12e6))
	st.Observe(sample("p", 1, 1*time.Second, 4e6, 10e6))
	st.Observe(sample("p", 2, 10*time.Second, 6.8e6, 7.0e6))
	st.Observe(sample("p", 3, 11*time.Second, 6.9e6, 7.3e6))

	// Whole series: [2, 12] Mb/s around a 7 Mb/s center → ρ = 10/7.
	rho, ok := st.RelVar("p", 0)
	if !ok || math.Abs(rho-10.0/7.0) > 1e-9 {
		t.Errorf("full-series ρ = %v ok %v, want 10/7", rho, ok)
	}
	// Trailing 2s (anchored at the last point's At = 11s): only the two
	// quiet points → [6.8, 7.3] around 7.05 → ρ = 0.5/7.05.
	rho, ok = st.RelVar("p", 2*time.Second)
	if !ok || math.Abs(rho-0.5/7.05) > 1e-9 {
		t.Errorf("trailing ρ = %v ok %v, want 0.5/7.05", rho, ok)
	}

	// Error rounds carry no range: a window holding only failures has
	// no feedback.
	st.Observe(pathload.Sample{Path: "q", Round: 0, At: 0, Err: errors.New("down")})
	if _, ok := st.RelVar("q", 0); ok {
		t.Error("all-error series answered a ρ query")
	}
	// But errors inside a mixed window are skipped, not fatal.
	st.Observe(sample("q", 1, time.Second, 5e6, 5e6))
	rho, ok = st.RelVar("q", 0)
	if !ok || rho != 0 {
		t.Errorf("degenerate one-point window: ρ = %v ok %v, want 0 true", rho, ok)
	}
}

// TestPointBitsRetained: the probe-load cost of every round — failed
// ones included — survives into the stored series.
func TestPointBitsRetained(t *testing.T) {
	st := tsstore.New(tsstore.Config{})
	s := sample("p", 0, 0, 4e6, 6e6)
	s.Result.Bits = 123456
	st.Observe(s)
	st.Observe(pathload.Sample{
		Path: "p", Round: 1, At: time.Second,
		Result: pathload.Result{Elapsed: time.Millisecond, Bits: 789},
		Err:    errors.New("mid-round failure"),
	})
	pts := st.Snapshot("p")
	if len(pts) != 2 || pts[0].Bits != 123456 || pts[1].Bits != 789 {
		t.Fatalf("stored Bits = %v, want [123456 789]", []float64{pts[0].Bits, pts[1].Bits})
	}
}

// TestPathsStaySorted: the store keeps its path list sorted as it
// learns ids — from Observes in random order, from archive recovery
// (sealed segment, checkpoint and tail alike) and from a federation
// snapshot — and Paths hands out a copy of it.
func TestPathsStaySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := slices.Clone(escapeIDs)
	for len(ids) < 300 {
		ids = append(ids, fmt.Sprintf("p-%x", rng.Uint32()))
	}
	want := slices.Compact(slices.Sorted(slices.Values(ids)))
	check := func(when string, got []string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Paths() is not the %d ids, sorted: %q", when, len(want), got)
		}
	}

	dir := t.TempDir()
	cfg := tsstore.Config{Capacity: 4}
	st, backend, _, err := archive.OpenStore(dir, archive.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n, i := range rng.Perm(len(ids)) {
		st.Observe(sample(ids[i], 0, 0, 1e6, 2e6))
		if n == len(ids)/2 {
			if err := backend.Archive().Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after Observes in random order", st.Paths())
	st.Paths()[0] = "~"
	check("after a caller wrote to its copy", st.Paths())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, _, _, err := archive.OpenStore(dir, archive.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("after archive recovery", re.Paths())

	fed := tsstore.NewFederation(cfg)
	for _, i := range rng.Perm(len(ids)) {
		fed.Push("agent", ids[i], tsstore.Contribution{Seq: 1, Total: 1, Points: re.Snapshot(ids[i]), Digest: re.DigestSnapshot(ids[i])})
	}
	check("after a federation snapshot", fed.Snapshot().Paths())
}
