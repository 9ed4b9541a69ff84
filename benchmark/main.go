// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the system would see, and — from a
// separate traced run — per-layer metrics that say where a change
// landed. BENCHMARK.json at the repository root names this directory and
// the command; README.md here says what every number means.
//
//	go run -C benchmark .                 all workloads, 3 repeats each, medians
//	go run -C benchmark . -trace          … plus one traced run per workload
//	go run -C benchmark . -workload W -seed N -seconds S -trace 0|1
//	                                      one run in this process; the last
//	                                      line of output is its JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

var workloads = []workload{
	{
		name: "fleet_shards", op: "path-round", deterministic: true,
		why:   "the paper's tool at fleet breadth: one private simulator per path, so simulator-core work shows and store work does not",
		start: func(o runOpts) workloadRun { return &fleetShards{opts: o} },
	},
	{
		name: "mesh_sequenced", op: "path-round", deterministic: true,
		why:   "the same simulator shared: one event queue and a goroutine hand-off per stream section, so Sequencer cost shows",
		start: func(o runOpts) workloadRun { return &meshSequenced{opts: o} },
	},
	{
		name: "store_pipeline", op: "sample",
		why:   "no simulator: archive-backed ingest beside scrape, seal, federation and recovery, which the fleets barely touch",
		start: func(runOpts) workloadRun { return &storePipeline{} },
	},
	{
		name: "udp_loopback", op: "stream",
		why:   "real sockets on the wall clock over loopback: udprobe pacing and the wire codec run only here",
		start: func(o runOpts) workloadRun { return &udpLoopback{opts: o} },
	},
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// repeats is how many untraced runs of each workload runAll makes.
const repeats = 3

// boolValue lets -trace stand alone or take a value.
type boolValue bool

func (b *boolValue) String() string   { return strconv.FormatBool(bool(*b)) }
func (b *boolValue) IsBoolFlag() bool { return true }
func (b *boolValue) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolValue(v)
	return err
}

// joinTraceValue turns "-trace 0" into "-trace=0": the driver passes the
// value as its own argument, which a boolean flag would not consume.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	var trace boolValue
	name := flag.String("workload", "", "run this one workload in this process and print its JSON result last (default: all, each repeat in a child process)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "how long one run measures")
	smoke := flag.Bool("smoke", false, "one small block per workload: a check that everything runs, not a measurement")
	outDir := flag.String("out", "out", "directory for traces and scratch archives")
	flag.Var(&trace, "trace", "traced run: print per-layer metrics and write <out>/trace-<workload>.json")
	if err := flag.CommandLine.Parse(joinTraceValue(os.Args[1:])); err != nil {
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: bool(trace), smoke: *smoke, outDir: *outDir, workers: min(runtime.NumCPU(), 4)}
	if o.smoke {
		o.seconds = 0
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		rep, err := runWorkload(w, o)
		if err != nil {
			fatalf("%v", err)
		}
		rep.print(os.Stdout)
		line, err := rep.resultLine()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(line)
		return
	}
	if !runAll(o) {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) resultLine() (string, error) {
	line, err := json.Marshal(result{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil { // a NaN or Inf: some metric had nothing to measure
		return "", fmt.Errorf("result of %s is not reportable: %w", r.Workload, err)
	}
	return string(line), nil
}

// A childRun is what runAll reads back from one child process.
type childRun struct {
	result
	table  string   // the child's printed table
	hashes []string // per-block transcripts
}

// runChild runs one workload once in a fresh process of this binary, so
// peak RSS, allocator state and GC history start clean every time.
func runChild(w workload, o runOpts, seed int64, trace bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace=" + strconv.FormatBool(trace),
		"-out", o.outDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childRun{}, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	var c childRun
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.result); err != nil {
		return c, fmt.Errorf("%s: last line is not a result: %w", w.name, err)
	}
	for _, l := range lines[:len(lines)-1] {
		if rest, ok := strings.CutPrefix(l, "transcript "); ok {
			c.hashes = strings.Fields(rest)
		}
	}
	c.table = strings.Join(lines[:len(lines)-1], "\n")
	return c, nil
}

// simulatedMetrics are the end-to-end metrics that, on a deterministic
// workload, are simulated or counted and so must repeat exactly.
var simulatedMetrics = []string{"op_latency_ms_p50", "op_latency_ms_p90", "quality_ratio", "io_kb_per_op"}

// runAll runs every workload, repeats times untraced plus once traced
// when asked, and prints every metric by name with its unit. It reports
// whether every run was correct and every deterministic workload
// repeated exactly.
func runAll(o runOpts) bool {
	ok := true
	for _, w := range workloads {
		fmt.Printf("== %s: %s\n", w.name, w.why)
		var runs []childRun
		for i := 0; i < repeats; i++ {
			c, err := runChild(w, o, o.seed, false)
			if err != nil {
				fatalf("%v", err)
			}
			if !c.Correct {
				ok = false
				fmt.Println(c.table)
			}
			runs = append(runs, c)
		}
		if len(runs) > 0 {
			fmt.Printf("   seed %d, %d repeats, one op = one %s; attempted %d, failed %d in the last\n",
				o.seed, repeats, w.op, runs[len(runs)-1].Attempted, runs[len(runs)-1].Failed)
			fmt.Printf("   %-24s %-6s %14s %14s %14s %3s\n", "metric", "unit", "median", "min", "max", "n")
			for _, d := range endToEndDefs {
				var xs []float64
				for _, c := range runs {
					xs = append(xs, c.Metrics[d.name].Value)
				}
				lo, hi := minMax(xs)
				fmt.Printf("   %-24s %-6s %14.6g %14.6g %14.6g %3d\n", d.name, d.unit, median(xs), lo, hi, len(xs))
			}
			if msg := repeatsExactly(w, runs); msg != "" {
				ok = false
				fmt.Println("   FAIL " + msg)
			} else if len(runs[0].hashes) > 0 {
				fmt.Printf("   transcripts and counted metrics repeat exactly over %d runs\n", len(runs))
			}
		}
		if o.trace {
			c, err := runChild(w, o, o.seed, true)
			if err != nil {
				fatalf("%v", err)
			}
			ok = ok && c.Correct
			fmt.Println(indent(c.table, "   "))
		}
	}
	return ok
}

// repeatsExactly checks the determinism contract across the repeats of
// one seed: block transcripts agree wherever two runs both measured the
// block, and on a deterministic workload so do the simulated metrics.
// It returns "" when they do.
func repeatsExactly(w workload, runs []childRun) string {
	first := runs[0]
	for _, c := range runs[1:] {
		for i := 0; i < min(len(first.hashes), len(c.hashes)); i++ {
			if first.hashes[i] != c.hashes[i] {
				return fmt.Sprintf("block %d transcript differs between repeats: %.12s vs %.12s", i, first.hashes[i], c.hashes[i])
			}
		}
		if !w.deterministic {
			continue
		}
		for _, name := range simulatedMetrics {
			if a, b := first.Metrics[name].Value, c.Metrics[name].Value; a != b {
				return fmt.Sprintf("%s differs between repeats: %v vs %v", name, a, b)
			}
		}
	}
	return ""
}

func indent(s, prefix string) string {
	return prefix + strings.ReplaceAll(s, "\n", "\n"+prefix)
}
