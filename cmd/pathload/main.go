// Command pathload measures the available bandwidth of a simulated
// network path. It is the quickest way to see SLoPS converge: build a
// path from flags, attach cross traffic, and run the full iterative
// measurement in virtual time.
//
// Example:
//
//	pathload -hops 5 -cap 10 -util 0.6 -model pareto -v
//
// measures a five-hop path whose 10 Mb/s tight link runs at 60%
// utilization (true avail-bw 4 Mb/s).
//
// Monitor mode measures a whole fleet of simulated paths concurrently
// and periodically, streaming one timestamped avail-bw range per path
// per round:
//
//	pathload -monitor -paths 64 -rounds 3 -interval 100ms -workers 8
//
// With -export the fleet's time series are retained in a store and
// served over HTTP — Prometheus exposition on /metrics, JSON series on
// /series, paper-style MRTG buckets on /mrtg — and the process keeps
// serving after the fleet finishes, until interrupted:
//
//	pathload -monitor -paths 16 -rounds 5 -export :9090 &
//	curl -s localhost:9090/metrics | grep availbw_window
//
// With -mesh the fleet's paths share a backbone instead of being
// independent shards: all paths run over one simulator on the chosen
// shape (star, chain, tree, disjoint), so their probe streams contend
// on the common links while the monitor streams per-path samples as
// usual:
//
//	pathload -monitor -mesh star -paths 8 -rounds 3 -export :9090
//
// The fleet's re-measurement schedule is pluggable: -schedule adaptive
// scales each path's gap by its recent windowed ρ (quiet paths probe
// rarely, volatile paths often), -budget caps the fleet's aggregate
// probe bit-rate with a token bucket (§VIII at scale), and -stagger
// (with -mesh) keeps paths that share a tight link from measuring at
// the same time:
//
//	pathload -monitor -paths 16 -rounds 5 -schedule adaptive -budget 2
//	pathload -monitor -mesh star -paths 8 -rounds 3 -stagger
//
// With -senders the monitored fleet runs on real networks instead of
// simulators: each comma-separated pathload-snd control address becomes
// one monitored path, dialed (and, after failures, re-dialed with
// backoff) by the monitor itself, so the fleet survives sender restarts
// and transient outages. -schedule, -budget, and -export compose as
// usual:
//
//	pathload -monitor -senders hostA:8365,hostB:8365 -rounds 5 -export :9090
//
// With -scenario the monitor measures one composed adversarial
// scenario from the internal/scenario library instead of a fleet:
// long-range-dependent cross traffic, a mid-run flash crowd, a
// migrating tight link, twin near-tight bottlenecks, random loss, or
// reordering. Rounds split evenly across the scenario's epochs; each
// round is graded against the analytic truth of the epoch it ran in:
//
//	pathload -monitor -scenario lossy:load=0.7,loss=0.05 -rounds 8
//
// With -agent the process joins a pathload-coord fleet instead of
// choosing its own paths: it registers under -agent-name, measures
// whatever paths the coordinator leases it (staggering co-leased paths
// that share a tight link, resuming series across lease handoffs), and
// pushes its retained series and digests back for federation:
//
//	pathload -agent localhost:8400 -agent-name a1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/cli"
	"repro/internal/crosstraffic"
	"repro/internal/experiments"
	"repro/internal/mesh"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/schedule"
	"repro/internal/simprobe"
	"repro/internal/tsstore"
	"repro/internal/udprobe"

	pathload "repro"
)

func main() {
	o, m, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: %v\n", err)
		os.Exit(2)
	}
	m.run(o)
}

// options holds the pathload flags a run reads (-monitor only selects a
// mode); which of them it reads is its mode's business (modes).
type options struct {
	hops, sources, paths, rounds, workers            int
	capMbps, util, beta, jitter, budget              float64
	model, export, mesh, schedule, senders, scenario string
	agent, agentName, secret, archive                string
	seed                                             int64
	verbose, stagger                                 bool
	interval, backoff, heartbeat, push               time.Duration
	measure                                          pathload.Config
}

// A mode is one way to run pathload: the flags that select it (all of
// them set), what it does, and every flag it reads, selectors included.
// A flag set to anything but its default that the selected mode does
// not read is an error, so no flag is ever silently dropped.
type mode struct {
	selector, usage, does, flags string
	run                          func(*options)
}

// modes is the mode table: -h prints it, and parseArgs selects the last
// row whose selector flags are all set.
var modes = []mode{
	{usage: "(no mode flag)", run: runPath,
		does:  "measure one simulated multi-hop path",
		flags: "hops cap util beta model sources seed k n omega chi v"},
	{selector: "monitor", usage: "-monitor", run: runMonitor,
		does:  "monitor a fleet of independent single-hop simulator shards",
		flags: "monitor paths rounds interval jitter workers schedule budget export archive cap util model sources seed k n omega chi"},
	{selector: "monitor mesh", usage: "-monitor -mesh <shape>", run: runMonitor,
		does:  "monitor a fleet over one shared backbone, sequenced on one virtual clock (replays byte-for-byte)",
		flags: "monitor mesh stagger paths rounds interval jitter schedule budget export archive seed k n omega chi"},
	{selector: "monitor senders", usage: "-monitor -senders a,b,…", run: runMonitor,
		does:  "monitor a real-network fleet, one path per pathload-snd daemon, re-dialed after failures",
		flags: "monitor senders reconnect-backoff rounds interval jitter workers schedule budget export archive seed k n omega chi"},
	{selector: "monitor scenario", usage: "-monitor -scenario spec", run: runScenario,
		does:  "measure one composed adversarial path, rounds split across its epochs (fleet-wide scenarios: repro -fig fleetscenarios)",
		flags: "monitor scenario rounds seed k n omega chi"},
	{selector: "agent", usage: "-agent host:port", run: runAgent,
		does:  "measure the paths a pathload-coord leases and push their series back",
		flags: "agent agent-name secret heartbeat push reconnect-backoff interval jitter workers export archive seed k n omega chi"},
}

func (m mode) reads(flag string) bool { return slices.Contains(strings.Fields(m.flags), flag) }

// name is the mode as an error message names it: its last selector.
func (m mode) name() string {
	if m.selector == "" {
		return "single-path mode"
	}
	return "-" + m.selector[strings.LastIndexByte(m.selector, ' ')+1:]
}

// printModes renders the mode table for -h.
func printModes(w io.Writer) {
	fmt.Fprint(w, "\nModes: the mode flags select one, and setting a flag the selected mode\ndoes not read to anything but its default is an error.\n")
	for _, m := range modes {
		fmt.Fprintf(w, "  %s\n", m.usage)
		wrap(w, "     ", "     ", strings.Fields(m.does))
		wrap(w, "      reads", "           ", strings.Fields(strings.ReplaceAll(" "+m.flags, " ", " -")))
	}
}

// wrap writes words after first, in lines of at most 78 bytes, each
// further line starting with indent.
func wrap(w io.Writer, first, indent string, words []string) {
	line := first
	for i, word := range words {
		if i > 0 && len(line)+1+len(word) > 78 {
			fmt.Fprintln(w, line)
			line = indent
		}
		line += " " + word
	}
	fmt.Fprintln(w, line)
}

var models = map[string]crosstraffic.Model{
	"poisson": crosstraffic.ModelPoisson,
	"pareto":  crosstraffic.ModelPareto,
	"cbr":     crosstraffic.ModelCBR,
}

// parseArgs defines the flags on fs, parses args and validates them:
// the selected mode must read every flag set, and every value must lie
// in range.
func parseArgs(fs *flag.FlagSet, args []string) (*options, mode, error) {
	o := &options{}
	fs.IntVar(&o.hops, "hops", 5, "number of links in the path")
	fs.Float64Var(&o.capMbps, "cap", 10, "tight link capacity, Mb/s")
	fs.Float64Var(&o.util, "util", 0.6, "tight link utilization in [0,1)")
	fs.Float64Var(&o.beta, "beta", 4, "path tightness factor β = A_nt/A (≥ 1)")
	fs.StringVar(&o.model, "model", "pareto", "cross traffic model: poisson, pareto, cbr")
	fs.IntVar(&o.sources, "sources", 10, "cross-traffic sources per hop")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	measure := cli.MeasureFlags(fs)
	fs.BoolVar(&o.verbose, "v", false, "log every fleet")

	fs.Bool("monitor", false, "monitor a fleet of single-hop paths instead of measuring one")
	fs.IntVar(&o.paths, "paths", 16, "monitor: number of simulated paths")
	fs.IntVar(&o.rounds, "rounds", 3, "monitor: measurements per path (≥ 1)")
	fs.DurationVar(&o.interval, "interval", 100*time.Millisecond, "monitor: re-measurement gap per path")
	fs.Float64Var(&o.jitter, "jitter", 0.3, "monitor: gap randomization fraction in [0,1]")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "monitor: max concurrent measurements (not with -mesh: a mesh fleet is sequenced on one virtual clock)")
	fs.StringVar(&o.export, "export", "", "monitor: HTTP listen address for the time-series store (e.g. :9090); keeps serving after the fleet finishes, until interrupted")
	fs.StringVar(&o.mesh, "mesh", "", "monitor: run the fleet over a shared backbone instead of independent paths: star, chain, tree, disjoint (fixed shape parameters)")
	fs.StringVar(&o.schedule, "schedule", "fixed", "monitor: re-measurement schedule: fixed (jittered -interval), adaptive (per-path gaps scaled by recent windowed ρ), budgeted (fixed under the -budget cap)")
	fs.Float64Var(&o.budget, "budget", 0, "monitor: aggregate probe bit-rate cap in Mb/s across the fleet (token bucket); wraps the chosen -schedule, required by -schedule budgeted")
	fs.BoolVar(&o.stagger, "stagger", false, "monitor: with -mesh, never co-measure paths that share a tight link (contention-aware admission)")
	fs.StringVar(&o.senders, "senders", "", "monitor: comma-separated pathload-snd control addresses (host:port,…); each becomes one real-network path with reconnect-on-error")
	fs.StringVar(&o.scenario, "scenario", "", "monitor: measure one composed scenario (name[:key=value,…], e.g. lossy:load=0.7) instead of a fleet; rounds split across its epochs")
	fs.DurationVar(&o.backoff, "reconnect-backoff", 500*time.Millisecond, "monitor: with -senders, first re-dial delay after a transport failure (doubles up to 15s)")

	fs.StringVar(&o.agent, "agent", "", "run as a fleet agent of the pathload-coord at this control address (host:port); leased paths are measured and pushed to the coordinator")
	fs.StringVar(&o.agentName, "agent-name", "", "agent: fleet-unique agent name (default the hostname)")
	fs.DurationVar(&o.heartbeat, "heartbeat", 0, "agent: heartbeat cadence (0 derives min(TTL/3, epoch) from the coordinator)")
	fs.DurationVar(&o.push, "push", 0, "agent: contribution push cadence (0 pushes on every heartbeat)")
	fs.StringVar(&o.secret, "secret", "", "agent: shared authentication secret (required when the coordinator runs with -secret)")

	fs.StringVar(&o.archive, "archive", "", "monitor/agent: durable measurement archive dir[:seal=<bytes>[k|m]][,sync]; series recover and resume across restarts (inspect with pathload-archive)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage of %s:\n", fs.Name())
		fs.PrintDefaults()
		printModes(fs.Output())
	}
	if err := cli.Parse(fs, args); err != nil {
		return nil, mode{}, err
	}
	// One measurement Config for every mode, so the slack a mode grades
	// with (Config.Slack) is read from the Config its rounds ran under.
	o.measure = measure()

	var set []string // flags set to other than their default, sorted
	fs.Visit(func(f *flag.Flag) {
		if f.Value.String() != f.DefValue {
			set = append(set, f.Name)
		}
	})
	unset := func(r mode) []string {
		return slices.DeleteFunc(strings.Fields(r.selector), func(s string) bool { return slices.Contains(set, s) })
	}
	m := modes[0]
	for _, r := range modes[1:] {
		if len(unset(r)) == 0 {
			m = r
		}
	}
	for _, name := range set {
		if m.reads(name) {
			continue
		}
		readers := slices.DeleteFunc(slices.Clone(modes), func(r mode) bool { return !r.reads(name) })
		if len(readers) == 1 && len(unset(readers[0])) > 0 {
			return nil, m, fmt.Errorf("-%s needs -%s", name, strings.Join(unset(readers[0]), " -"))
		}
		return nil, m, fmt.Errorf("%s excludes -%s (drop it; -h lists the flags each mode reads)", m.name(), name)
	}

	// Each float check is written so that NaN fails it.
	_, knownModel := models[o.model]
	for _, r := range []struct {
		bad bool
		msg string
	}{
		{o.rounds < 1, "-monitor needs -rounds ≥ 1"},
		{o.hops < 0, "-hops must not be negative"},
		{!(o.capMbps >= 0 && o.capMbps <= math.MaxFloat64), "-cap must not be negative or infinite"},
		{!(o.util >= 0 && o.util < 1), "-util must lie in [0,1)"},
		{o.beta != 0 && !(o.beta >= 1 && o.beta <= math.MaxFloat64), "-beta must be ≥ 1 and finite"},
		{o.sources < 0, "-sources must not be negative"},
		{!knownModel, fmt.Sprintf("unknown model %q", o.model)},
		{!slices.Contains([]string{"fixed", "adaptive", "budgeted"}, o.schedule), fmt.Sprintf("unknown -schedule %q (have fixed, adaptive, budgeted)", o.schedule)},
		{!(o.budget >= 0 && o.budget <= math.MaxFloat64), "-budget must be a finite Mb/s ≥ 0"},
		{o.schedule == "budgeted" && o.budget == 0, "-schedule budgeted needs -budget > 0 (the fleet's aggregate probe cap in Mb/s)"},
		{o.mesh != "" && !slices.Contains(mesh.ShapeNames(), o.mesh), fmt.Sprintf("unknown -mesh %q (have %s)", o.mesh, strings.Join(mesh.ShapeNames(), ", "))},
	} {
		if r.bad {
			return nil, m, errors.New(r.msg)
		}
	}
	return o, m, nil
}

// runPath measures one simulated multi-hop path.
func runPath(o *options) {
	topo := experiments.Topology{
		Hops:          o.hops,
		TightCap:      o.capMbps * 1e6,
		TightUtil:     o.util,
		Beta:          o.beta,
		Model:         models[o.model],
		SourcesPerHop: o.sources,
		Seed:          o.seed,
	}
	net := topo.Build()
	net.Warmup(3 * netsim.Second)
	prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)

	start := time.Now()
	res, err := pathload.Run(prober, o.measure)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: %v\n", err)
		os.Exit(1)
	}
	if o.verbose {
		cli.LogFleets(os.Stdout, res, o.measure)
	}
	fmt.Printf("true avail-bw: %.2f Mb/s\n", topo.AvailBw()/1e6)
	fmt.Printf("measured:      %v\n", res)
	fmt.Printf("ADR init:      %.2f Mb/s\n", res.ADR/1e6)
	fmt.Printf("probe time:    %v (virtual), %v (wall)\n", res.Elapsed.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	fmt.Printf("sim events:    %d\n", net.Sim.Events())
}

// runScenario measures one composed scenario: build it, warm it up, and
// run rounds back to back, advancing the scenario's epoch at its round
// boundary so each round is graded against the truth of the epoch it
// ran in. The spec string is untrusted CLI input — scenario.Parse
// rejects malformed specs with an error (FuzzParse holds it to that).
func runScenario(o *options) {
	s, err := scenario.Parse(o.scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: -scenario: %v\n", err)
		os.Exit(2)
	}
	inst, err := s.Build(o.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: -scenario: %v\n", err)
		os.Exit(1)
	}
	inst.Mesh.Warmup(3 * netsim.Second)
	prober := simprobe.New(inst.Sim(), inst.Path.Route, 10*netsim.Millisecond)

	fmt.Printf("scenario %s: %s (%d epoch(s), %d rounds)\n", s.Name, s.Info, inst.Epochs(), o.rounds)
	if s.FailureMode != "" {
		fmt.Printf("expected failure mode: %s\n", s.FailureMode)
	}
	slack := o.measure.Slack()
	fmt.Printf("epoch 0: true avail-bw %.2f Mb/s (tight hop %d)\n", inst.Truth()/1e6, inst.TightHop())

	start := time.Now()
	hit := 0
	for r := 0; r < o.rounds; r++ {
		if inst.AdvanceToRound(r, o.rounds, 3*netsim.Second) > 0 {
			fmt.Printf("epoch %d: true avail-bw now %.2f Mb/s (tight hop %d)\n",
				inst.Epoch(), inst.Truth()/1e6, inst.TightHop())
		}
		truth := inst.Truth()
		res, err := pathload.Run(prober, o.measure)
		if err != nil {
			fmt.Printf("r%d e%d true %6.2f Mb/s → error: %v\n", r, inst.Epoch(), truth/1e6, err)
			continue
		}
		mark := " "
		if pathload.Brackets(res.Lo, res.Hi, truth, slack) {
			hit++
			mark = "*"
		}
		fmt.Printf("r%d e%d true %6.2f Mb/s → %v %s\n", r, inst.Epoch(), truth/1e6, res, mark)
		inst.Sim().RunFor(500 * netsim.Millisecond)
	}
	fmt.Printf("scenario %s: %d/%d ranges bracket the epoch truth (slack ω+χ = %.1f Mb/s) in %v wall\n",
		s.Name, hit, o.rounds, slack/1e6, time.Since(start).Round(time.Millisecond))
}

// scheduler builds the fleet's re-measurement schedule from the flags:
// the named base schedule, wrapped in a token bucket when -budget caps
// the fleet's aggregate probe bit-rate.
func (o *options) scheduler() schedule.Scheduler {
	var s schedule.Scheduler // nil: the monitor's Fixed from Interval/Jitter/Seed
	if o.schedule == "adaptive" {
		s = &schedule.Adaptive{Base: o.interval, Window: 8 * o.interval}
	}
	if o.budget > 0 {
		if s == nil {
			s = &schedule.Fixed{Interval: o.interval, Jitter: o.jitter, Seed: o.seed}
		}
		s = &schedule.Budgeted{Inner: s, Rate: o.budget * 1e6}
	}
	return s
}

// runMonitor builds the monitored fleet (independent single-hop shards
// by default, a shared backbone with -mesh), warms it up, and streams
// the monitor's samples as they complete. Every sample also lands in a
// tsstore.Store; with -export the store is served over HTTP and the
// process stays up for scraping after the fleet finishes.
func runMonitor(o *options) {
	store, closeStore, err := openMonitorStore(o.archive)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: -archive: %v\n", err)
		os.Exit(1)
	}
	defer closeStore()
	var exportURL string
	if o.export != "" {
		exportURL = cli.Export("pathload", o.export, store.Handler())
		fmt.Printf("exporting store on %s (endpoints: /metrics /series /mrtg)\n", exportURL)
	}
	mon, avail, err := buildFleet(o, store)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: %v\n", err)
		os.Exit(1)
	}
	start := time.Now()
	if err := mon.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "pathload: %v\n", err)
		os.Exit(1)
	}
	// Same bracketing slack as the dynamics-at-scale experiment: the
	// termination resolutions ω + χ as Run reads them.
	slack := o.measure.Slack()
	hit := 0
	total := 0
	for s := range mon.Results() {
		total++
		if s.Err != nil {
			fmt.Printf("%s\n", s)
			continue
		}
		a, known := avail[s.Path]
		if !known {
			// Real paths have no analytic ground truth to grade against.
			fmt.Printf("%-9s r%d @%-8v %v\n", s.Path, s.Round, s.At.Round(time.Millisecond), s.Result)
			continue
		}
		if pathload.Brackets(s.Result.Lo, s.Result.Hi, a, slack) {
			hit++
		}
		fmt.Printf("%-9s r%d @%-8v true %6.2f Mb/s → %v\n",
			s.Path, s.Round, s.At.Round(time.Millisecond), a/1e6, s.Result)
	}
	mon.Wait()
	if len(avail) > 0 {
		fmt.Printf("fleet: %d paths × %d rounds in %v wall; %d/%d ranges bracket the true avail-bw\n",
			len(mon.Paths()), o.rounds, time.Since(start).Round(time.Millisecond), hit, total)
	} else {
		fmt.Printf("fleet: %d real paths × %d rounds in %v wall; %d samples\n",
			len(mon.Paths()), o.rounds, time.Since(start).Round(time.Millisecond), total)
	}

	// Per-path retained-window aggregates, read back from the store.
	fmt.Printf("\nstored series (retained window):\n")
	fmt.Printf("%-9s %6s %28s %10s %8s %8s\n", "path", "points", "window [minLo,maxHi] (Mb/s)", "mean mid", "p50", "ρ(win)")
	for _, id := range store.Paths() {
		agg := store.Retained(id)
		if agg.Digest == nil {
			fmt.Printf("%-9s %6d %28s\n", id, agg.Count, "all rounds failed")
			continue
		}
		fmt.Printf("%-9s %6d %15s[%6.2f,%6.2f] %10.2f %8.2f %8.2f\n",
			id, agg.Count, "", agg.MinLo/1e6, agg.MaxHi/1e6,
			agg.MeanMid/1e6, agg.Quantile(0.5)/1e6, agg.RelVar)
	}

	if o.export != "" {
		fmt.Printf("\nfleet done; still serving %s — curl /metrics, Ctrl-C to exit\n", exportURL)
		cli.WaitInterrupt()
	}
}

// openMonitorStore builds the fleet's store: purely in-memory by
// default, or recovered from (and writing through to) a durable
// archive when -archive names one. The recovery report prints so an
// operator sees exactly what a restart recovered — and what a crash
// cost.
func openMonitorStore(spec string) (*tsstore.Store, func(), error) {
	if spec == "" {
		return tsstore.New(tsstore.Config{}), func() {}, nil
	}
	dir, opt, err := archive.ParseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	store, backend, rep, err := archive.OpenStore(dir, opt, tsstore.Config{})
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("archive: %s — %s\n", dir, rep.String())
	closer := func() {
		if err := backend.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "pathload: archive close: %v\n", err)
		}
		if n, last := store.BackendErrs(); n > 0 {
			fmt.Fprintf(os.Stderr, "pathload: archive dropped %d writes (last: %v)\n", n, last)
		}
	}
	return store, closer, nil
}

// buildFleet constructs the monitored fleet: either independent
// single-hop simulator shards (the default) or, with -mesh, routes over
// one shared-backbone simulator whose probe streams contend on common
// links. It returns the wired (unstarted) monitor and the per-path
// analytic avail-bw ground truth.
func buildFleet(o *options, store *tsstore.Store) (*pathload.Monitor, map[string]float64, error) {
	cfg := pathload.MonitorConfig{
		Workers:   o.workers,
		Rounds:    o.rounds,
		Interval:  o.interval,
		Jitter:    o.jitter,
		Seed:      o.seed,
		Config:    o.measure,
		Store:     store,
		Scheduler: o.scheduler(),
	}
	if o.schedule != "fixed" || o.budget > 0 {
		fmt.Printf("schedule: %s", o.schedule)
		if o.budget > 0 {
			fmt.Printf(" under a %.2f Mb/s aggregate probe budget", o.budget)
		}
		fmt.Println()
	}
	avail := map[string]float64{}

	if senders := cli.Split(o.senders); len(senders) > 0 {
		// A real-network fleet: every sender address becomes one
		// factory-backed path the monitor dials itself, so a dead or
		// restarted pathload-snd heals the session instead of ending it.
		cfg.Reconnect = pathload.Reconnect{Backoff: o.backoff}
		mon, err := pathload.NewMonitor(cfg)
		if err != nil {
			return nil, nil, err
		}
		used := map[string]bool{}
		for i, addr := range senders {
			addr := addr
			id := addr
			if used[id] {
				// Two paths to the same daemon are legal (it serves
				// sessions concurrently); disambiguate the series name.
				id = fmt.Sprintf("%s#%d", addr, i)
			}
			used[id] = true
			factory := func() (pathload.Prober, error) {
				return udprobe.Dial(addr, udprobe.ProberConfig{})
			}
			if err := mon.AddPathFactory(id, factory); err != nil {
				return nil, nil, err
			}
		}
		fmt.Printf("real fleet: %d udprobe paths (reconnect backoff %v)\n", len(senders), o.backoff)
		return mon, avail, nil
	}

	if o.mesh != "" {
		spec, err := mesh.Shape(o.mesh, o.paths, o.seed)
		if err != nil {
			return nil, nil, err
		}
		m, err := spec.Build()
		if err != nil {
			return nil, nil, err
		}
		m.Warmup(3 * netsim.Second)
		for _, p := range m.Paths() {
			avail[p.Name] = p.AvailBw()
		}
		if o.stagger {
			// Contention-aware admission: the mesh knows which paths
			// share a tight link; never measure two of them at once. No
			// worker cap on top: -workers defaults to the host's core
			// count, which must not leak into a replayable timeline.
			cfg.Admission = schedule.NewStagger(m.TightOverlaps(), 0)
			fmt.Println("admission: staggering tight-link-sharing paths")
		}
		mon, drv, err := m.MonitorFleet(cfg, 10*netsim.Millisecond)
		if err != nil {
			return nil, nil, err
		}
		// Per-link utilization series, one point per fleet round, onto
		// the same store the per-path samples land in (/mrtg?link=...).
		rec := m.NewLinkRecorder(store)
		drv.OnRoundBoundary(func(round int) { rec.Snapshot(round) })
		fmt.Printf("mesh fleet: %d paths over a %s backbone (%d links, sequenced — replays byte-for-byte)\n",
			o.paths, o.mesh, len(m.Links()))
		return mon, avail, nil
	}

	nets := make([]*experiments.Net, o.paths)
	for i := range nets {
		// Sweep utilization across ±50% of the flag, clamped to [0.05, 0.9].
		u := o.util * (0.5 + float64(i)/float64(max(o.paths-1, 1)))
		u = math.Min(0.9, math.Max(0.05, u))
		topo := experiments.Topology{
			Hops:          1,
			TightCap:      o.capMbps * 1e6,
			TightUtil:     u,
			Model:         models[o.model],
			SourcesPerHop: o.sources,
			Seed:          o.seed + int64(i)*7_919_317,
		}
		nets[i] = topo.Build()
		avail[experiments.PathID(i)] = topo.AvailBw()
	}
	mon, err := experiments.MonitorShards(nets, cfg)
	return mon, avail, err
}
