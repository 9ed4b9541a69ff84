package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// A workload is one set of generated inputs the benchmark runs. Work is
// cut into blocks of fixed, seed-determined size: a run sets up and
// measures block after block until it has measured for the requested
// time, and reports medians over the blocks. Fixed-size blocks keep the
// simulated outputs a function of the seed alone (the transcript hash
// must repeat) while the run length stays a command-line matter.
type workload struct {
	name string
	why  string
	op   string // what one operation is, for the printed table
	// deterministic workloads replay a smoke-size block twice per run
	// and fail the run when the two transcripts differ.
	deterministic bool
	start         func(o runOpts) workloadRun
}

// A workloadRun is the state of one run of one workload.
type workloadRun interface {
	// block sets up, measures, checks and tears down one block.
	block(c blockCtx) (blockResult, error)
	// layers sets the per-layer metrics of a traced run on rep, from
	// the spans of its traced blocks, whatever the blocks counted, and
	// the micro-probes of the layers this workload exercises.
	layers(rep *report, tr *tracer, spans []span, blocks []blockResult)
}

type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
	workers int
}

// probeLimit is how long one micro-probe may sample.
func (o runOpts) probeLimit() time.Duration {
	if o.smoke {
		return runLengthCapSmoke
	}
	return runLengthCap
}

// A blockCtx is what one block is given.
type blockCtx struct {
	index   int     // -1 for a block of the replay check, which no metric counts
	seed    int64   // this block's own seed
	smoke   bool    // smoke size
	tracer  *tracer // nil when the block runs untraced
	outDir  string
	workers int
}

func (o runOpts) blockCtx(index int, seed int64, smoke bool) blockCtx {
	return blockCtx{index: index, seed: seed, smoke: smoke, outDir: o.outDir, workers: o.workers}
}

// A blockResult is what one block contributes to the run's metrics.
type blockResult struct {
	traced      bool
	setup       time.Duration // build + warm-up, before timing starts
	wall        time.Duration // the measured section
	ops, failed int
	latencyMs   []float64 // one per operation (or per scrape, see README)
	ioBytes     float64   // bytes put on the medium: probe load, archive bytes
	good        int       // quality numerator …
	graded      int       // … and denominator
	allocBytes  uint64    // TotalAlloc over the measured section
	hash        string    // transcript hash, "" when the workload has none
	problems    []string  // output checks that failed
}

func (b blockResult) opsPerSec() float64 { return float64(b.ops) / b.wall.Seconds() }

// measured runs fn as a block's timed section.
func measured(b *blockResult, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	fn()
	b.wall = time.Since(t)
	runtime.ReadMemStats(&after)
	b.allocBytes = after.TotalAlloc - before.TotalAlloc
}

func blockSeed(seed int64, index int) int64 { return seed*1000 + int64(index) }

// A metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A report is the outcome of one run.
type report struct {
	Workload  string
	Trace     bool
	Blocks    int
	Attempted int
	Failed    int
	Problems  []string
	Hashes    []string // per block
	Metrics   map[string]metric
	Notes     map[string]string // metric name → sample counts, error bounds
}

func (r *report) correct() bool { return len(r.Problems) == 0 }

func (r *report) set(name string, v float64, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	r.Notes[name] = note
}

// setMicro records a micro-probe's mean with the error bound the
// run-length rule reached.
func (r *report) setMicro(name string, m microResult) {
	r.set(name, m.Mean, fmt.Sprintf("n_eff=%d eps_eff=%.4f", m.NEff, m.EpsEff))
}

// minBlocks is the least number of blocks a timed run measures, so
// that "median over blocks" means something even on a fast host. A
// traced run measures at least that many untraced-traced pairs.
const minBlocks = 3

// runWorkload runs w under o.
func runWorkload(w workload, o runOpts) (*report, error) {
	st := w.start(o)
	rep := &report{Workload: w.name, Trace: o.trace, Metrics: map[string]metric{}, Notes: map[string]string{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	want := minBlocks
	if o.smoke {
		want = 1
	}
	if o.trace {
		want *= 2 // untraced and traced blocks alternate
	}
	var blocks []blockResult
	var total time.Duration
	for i := 0; i < want || total.Seconds() < o.seconds || (o.trace && i%2 == 1); i++ {
		c := o.blockCtx(i, blockSeed(o.seed, i), o.smoke)
		if o.trace && i%2 == 1 { // alternate, so both halves see the same host
			c.tracer = tr
			tr.beginBlock(i)
		}
		runtime.GC() // the previous block's garbage is not this block's cost
		b, err := st.block(c)
		if err != nil {
			return nil, fmt.Errorf("%s block %d: %w", w.name, i, err)
		}
		b.traced = c.tracer != nil
		blocks = append(blocks, b)
		total += b.wall
	}
	if w.deterministic {
		if err := replayCheck(st, o, rep); err != nil {
			return nil, err
		}
	}

	var plain, traced []blockResult
	for i, b := range blocks {
		rep.Attempted += b.ops
		rep.Failed += b.failed
		rep.Hashes = append(rep.Hashes, b.hash)
		for _, p := range b.problems {
			rep.Problems = append(rep.Problems, fmt.Sprintf("block %d: %s", i, p))
		}
		if b.traced {
			traced = append(traced, b)
		} else {
			plain = append(plain, b)
		}
	}
	rep.Blocks = len(blocks)
	if rep.Failed > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d operations failed", rep.Failed, rep.Attempted))
	}
	if !o.trace {
		endToEnd(rep, plain, w.deterministic)
		return rep, nil
	}
	spans := tr.merged()
	st.layers(rep, tr, spans, blocks)
	ratios := make([]float64, len(traced))
	for i := range traced { // each traced block against the untraced one just before it
		ratios[i] = traced[i].opsPerSec() / plain[i].opsPerSec()
	}
	rep.set("trace_overhead_ratio", median(ratios),
		fmt.Sprintf("median over %d pairs of traced ÷ preceding untraced ops_per_s", len(ratios)))
	for _, name := range perLayerNames() { // every run prints every name
		if _, ok := rep.Metrics[name]; !ok {
			rep.set(name, 0, "layer not on this workload's path")
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeTrace(fmt.Sprintf("%s/trace-%s.json", o.outDir, w.name), spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// replayCheck runs a smoke-size block twice on one seed and records a
// problem when the transcripts differ: the determinism contract,
// checked on every run because speed work lands exactly here.
func replayCheck(st workloadRun, o runOpts, rep *report) error {
	var hashes [2]string
	for i := range hashes {
		b, err := st.block(o.blockCtx(-1, o.seed, true))
		if err != nil {
			return fmt.Errorf("replay check: %w", err)
		}
		hashes[i] = b.hash
	}
	if hashes[0] != hashes[1] {
		rep.Problems = append(rep.Problems, fmt.Sprintf("replay of seed %d gave transcripts %.12s and %.12s", o.seed, hashes[0], hashes[1]))
	}
	return nil
}

func medianOps(blocks []blockResult) float64 {
	xs := make([]float64, len(blocks))
	for i, b := range blocks {
		xs[i] = b.opsPerSec()
	}
	return median(xs)
}

// endToEnd fills the end-to-end metrics from untraced blocks. The same
// eight names carry every workload; README.md says what each means on
// each.
//
// How many blocks fit in the run depends on the host, so on a
// deterministic workload the simulated and counted metrics (latency in
// simulated time, quality, io) are taken over the first minBlocks
// blocks only — the ones every run of the seed measures — and repeat
// exactly. Timed metrics use every block.
func endToEnd(rep *report, blocks []blockResult, deterministic bool) {
	counted := blocks
	if deterministic && len(counted) > minBlocks {
		counted = counted[:minBlocks]
	}
	var setups, lat []float64
	var ops, good, graded, countedOps int
	var ioBytes float64
	var alloc uint64
	for _, b := range blocks {
		setups = append(setups, b.setup.Seconds())
		ops += b.ops
		alloc += b.allocBytes
	}
	for _, b := range counted {
		lat = append(lat, b.latencyMs...)
		countedOps += b.ops
		good += b.good
		graded += b.graded
		ioBytes += b.ioBytes
	}
	set := rep.set
	nb := fmt.Sprintf("median of %d blocks", len(blocks))
	set("setup_s", median(setups), nb)
	set("ops_per_s", medianOps(blocks), nb)
	t := summarize(lat)
	set("op_latency_ms_p50", t.P50, fmt.Sprintf("n=%d", t.N))
	set("op_latency_ms_p90", quantile(lat, 0.9), fmt.Sprintf("n=%d; highest supported percentile p%g = %.6g", t.N, t.TailPc, t.Tail))
	set("quality_ratio", float64(good)/float64(graded), fmt.Sprintf("%d of %d", good, graded))
	set("io_kb_per_op", ioBytes/float64(countedOps)/1e3, fmt.Sprintf("%d ops", countedOps))
	set("alloc_kb_per_op", float64(alloc)/1e3/float64(ops), fmt.Sprintf("%d ops", ops))
	rss, err := peakRSSMB()
	if err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}
	set("peak_rss_mb", rss, "VmHWM of this process")
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1e3, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// print writes the run as a table and then its block transcripts.
func (r *report) print(w io.Writer) {
	names := endToEndNames()
	if r.Trace {
		names = perLayerNames()
	}
	fmt.Fprintf(w, "workload %s  trace=%v  blocks=%d  attempted=%d  failed=%d\n", r.Workload, r.Trace, r.Blocks, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.6g %-8s %s\n", n, m.Value, m.Unit, r.Notes[n])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	fmt.Fprintf(w, "transcript %s\n", strings.Join(r.Hashes, " "))
}
