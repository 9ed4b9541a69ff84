package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	pathload "repro"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {39, 50}, // nothing has ten samples beyond it
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := summarize(xs)
	if s.N != 200 || s.TailPc != 95 || s.P50 != 99.5 || math.Abs(s.Tail-189.05) > 1e-9 {
		t.Errorf("summarize(0..199) = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %g, want 4", got)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},       // overlaps a: 20–30 counts once
		{Name: "c", Start: 90, End: 120, Parent: 0},      // runs past its parent: clipped at 100
		{Name: "a.inner", Start: 12, End: 18, Parent: 1}, // a grandchild is its parent's business
	}
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 30, 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	by := totalsByName(spans)
	if r := by["round"]; r.N != 1 || r.Total != 100 || r.Self != 50 {
		t.Errorf("round totals = %+v", r)
	}
}

// TestLaneNesting drives a lane the way a monitor session does: streams
// and idles inside a round, the gap idle outside, Observe closing it.
func TestLaneNesting(t *testing.T) {
	tr := newTracer()
	tr.beginBlock(3)
	fake := &fakeProber{}
	p := &tracedProber{inner: fake, lane: tr.lane("p")}
	sink := &tracedSink{inner: discardSink{}, tr: tr}
	for round := 0; round < 2; round++ {
		p.SendStream(pathload.StreamSpec{K: 2})
		p.Idle(0)
		p.SendStream(pathload.StreamSpec{K: 2})
		sink.Observe(pathload.Sample{Path: "p", Round: round})
		p.Idle(0) // the re-measurement gap
	}
	spans := tr.merged()
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
		if s.Path != "b3/p" {
			t.Errorf("span path %q, want b3/p", s.Path)
		}
	}
	round := []string{spanRound, spanSendStream, spanIdle, spanSendStream}
	want := append(append(append([]string{}, round...), spanObserve1, spanIdle), append(round, spanObserve, spanIdle)...)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("span names %v, want %v", names, want)
	}
	for i, s := range spans {
		inRound := i%6 >= 1 && i%6 <= 4
		if wantParent := map[bool]int{true: i - i%6, false: -1}[inRound]; s.Parent != wantParent {
			t.Errorf("span %d (%s) parent %d, want %d", i, s.Name, s.Parent, wantParent)
		}
		if i%6 != 5 && s.Round != i/6 {
			t.Errorf("span %d (%s) round %d, want %d", i, s.Name, s.Round, i/6)
		}
	}
	if len(tr.owdVectors()) != 4 {
		t.Errorf("captured %d OWD vectors, want 4", len(tr.owdVectors()))
	}
}

type fakeProber struct{}

func (fakeProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	return pathload.StreamResult{Sent: spec.K, OWDs: make([]pathload.OWDSample, spec.K)}, nil
}
func (fakeProber) Idle(time.Duration) error { return nil }
func (fakeProber) RTT() time.Duration       { return 0 }

type discardSink struct{}

func (discardSink) Observe(pathload.Sample) {}

func TestTranscriptHash(t *testing.T) {
	mk := func(path string, round int, lo float64) pathload.Sample {
		return pathload.Sample{Path: path, Round: round, At: time.Duration(round) * time.Second,
			Wall:   time.Now(),
			Result: pathload.Result{Lo: lo, Hi: lo + 1e6, Elapsed: 5 * time.Second, Bits: 3e6}}
	}
	a := []pathload.Sample{mk("p0", 0, 4e6), mk("p0", 1, 4.1e6), mk("p1", 0, 7e6)}
	b := []pathload.Sample{a[2], a[0], a[1]} // completion order is the host's business
	b[0].Wall = b[0].Wall.Add(time.Hour)     // and so is the wall clock
	if transcriptHash(a) != transcriptHash(b) {
		t.Error("hash depends on sample order or wall time")
	}
	c := append([]pathload.Sample(nil), a...)
	c[1].Result.Lo += 1
	if transcriptHash(a) == transcriptHash(c) {
		t.Error("hash ignores Lo")
	}
	c = append([]pathload.Sample(nil), a...)
	c[2].Result.Elapsed++
	if transcriptHash(a) == transcriptHash(c) {
		t.Error("hash ignores Elapsed")
	}
}

func TestRunLength(t *testing.T) {
	// No spread: the rule stops at its minimum sample count.
	m := runLength(time.Minute, func() float64 { return 5 })
	if m.Mean != 5 || m.NEff != runLengthMin || m.EpsEff != 0 {
		t.Errorf("constant sample: %+v", m)
	}
	// σ/mean = 0.5 needs (1.96·0.5/0.02)² ≈ 2401 samples.
	var i int
	m = runLength(time.Minute, func() float64 { i++; return float64(1 + 2*(i%2)) })
	if m.NEff < 2300 || m.NEff > 2500 || m.EpsEff >= runLengthEps || math.Abs(m.Mean-2) > 0.01 {
		t.Errorf("alternating sample: %+v", m)
	}
	// A sample that never settles is cut off by the time limit.
	i = 0
	m = runLength(time.Millisecond, func() float64 { i++; time.Sleep(200 * time.Microsecond); return float64(i * i) })
	if m.NEff > 100 || m.EpsEff < runLengthEps {
		t.Errorf("unsettled sample: %+v", m)
	}
}

func TestJoinTraceValue(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "w", "--seed", "3", "--seconds", "10", "--trace", "0"}, []string{"--workload", "w", "--seed", "3", "--seconds", "10", "--trace=0"}},
		{[]string{"-trace", "1", "-seed", "2"}, []string{"-trace=1", "-seed", "2"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace", "-seed", "2"}},
		{[]string{"-trace"}, []string{"-trace"}},
	} {
		if got := joinTraceValue(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("joinTraceValue(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the Go catalogue together.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, program has %s: %s", i, file.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: file has %+v, program has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in the file does not match the program's %g", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEndDefs, true)
	check("per_layer", file.PerLayer, perLayerDefs, false)
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks what the driver would: a correct result with nothing failed,
// every named metric present and finite, end-to-end metrics never 0. On
// the deterministic workloads it also checks the determinism contract:
// block 0 has the same transcript in both runs (one seed, and tracing
// does not perturb it), and another seed gives another.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		var block0 string
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 1, trace: trace, smoke: true, outDir: t.TempDir(), workers: 2}
			rep, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.correct() || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, problems %v", w.name, trace, rep.Attempted, rep.Failed, rep.Problems)
			}
			names := endToEndNames()
			if trace {
				names = perLayerNames()
			}
			if len(rep.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(names))
			}
			for _, n := range names {
				m, ok := rep.Metrics[n]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
					t.Errorf("%s trace=%v: metric %s = %v (present %v)", w.name, trace, n, m.Value, ok)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, n)
				}
			}
			if _, err := rep.resultLine(); err != nil {
				t.Error(err)
			}
			if trace {
				if _, err := os.Stat(o.outDir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no trace written: %v", w.name, err)
				}
			}
			if !w.deterministic {
				continue
			}
			if !trace {
				block0 = rep.Hashes[0]
			} else if rep.Hashes[0] != block0 || block0 == "" {
				t.Errorf("%s: block 0 transcript %q untraced, %q traced", w.name, block0, rep.Hashes[0])
			} else if rep.Hashes[1] == block0 {
				t.Errorf("%s: blocks 0 and 1 have different seeds and the same transcript", w.name)
			}
		}
	}
}
