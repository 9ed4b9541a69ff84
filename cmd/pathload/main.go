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
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro/internal/archive"
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
	var (
		hops    = flag.Int("hops", 5, "number of links in the path")
		capMbps = flag.Float64("cap", 10, "tight link capacity, Mb/s")
		util    = flag.Float64("util", 0.6, "tight link utilization in [0,1)")
		beta    = flag.Float64("beta", 4, "path tightness factor β = A_nt/A (≥ 1)")
		model   = flag.String("model", "pareto", "cross traffic model: poisson, pareto, cbr")
		sources = flag.Int("sources", 10, "cross-traffic sources per hop")
		seed    = flag.Int64("seed", 1, "random seed")
		k       = flag.Int("k", pathload.DefaultPacketsPerStream, "packets per stream (K)")
		n       = flag.Int("n", pathload.DefaultStreamsPerFleet, "streams per fleet (N, at most: a decided fleet stops early)")
		omega   = flag.Float64("omega", pathload.DefaultResolution/1e6, "estimation resolution ω, Mb/s")
		chi     = flag.Float64("chi", pathload.DefaultGreyResolution/1e6, "grey resolution χ, Mb/s")
		verbose = flag.Bool("v", false, "log every fleet")

		monitor   = flag.Bool("monitor", false, "monitor a fleet of single-hop paths instead of measuring one (honors -cap -util -model -sources -seed -k -n -omega -chi)")
		paths     = flag.Int("paths", 16, "monitor: number of simulated paths")
		rounds    = flag.Int("rounds", 3, "monitor: measurements per path (≥ 1)")
		interval  = flag.Duration("interval", 100*time.Millisecond, "monitor: re-measurement gap per path")
		jitter    = flag.Float64("jitter", 0.3, "monitor: gap randomization fraction in [0,1]")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "monitor: max concurrent measurements (a -mesh fleet is sequenced on one virtual clock and ignores it)")
		export    = flag.String("export", "", "monitor: HTTP listen address for the time-series store (e.g. :9090); keeps serving after the fleet finishes, until interrupted")
		meshName  = flag.String("mesh", "", "monitor: run the fleet over a shared backbone instead of independent paths: star, chain, tree, disjoint (fixed shape parameters; ignores -cap -util -model -sources)")
		schedName = flag.String("schedule", "fixed", "monitor: re-measurement schedule: fixed (jittered -interval), adaptive (per-path gaps scaled by recent windowed ρ), budgeted (fixed under the -budget cap)")
		budget    = flag.Float64("budget", 0, "monitor: aggregate probe bit-rate cap in Mb/s across the fleet (token bucket); wraps the chosen -schedule, required by -schedule budgeted")
		stagger   = flag.Bool("stagger", false, "monitor: with -mesh, never co-measure paths that share a tight link (contention-aware admission)")
		senders   = flag.String("senders", "", "monitor: comma-separated pathload-snd control addresses (host:port,…); each becomes one real-network path with reconnect-on-error (ignores -paths -cap -util -model -sources; excludes -mesh)")
		scen      = flag.String("scenario", "", "monitor: measure one composed scenario (name[:key=value,…], e.g. lossy:load=0.7) instead of a fleet; rounds split across its epochs (honors -rounds -k -n -omega -chi -seed; excludes -mesh -senders)")
		backoff   = flag.Duration("reconnect-backoff", 500*time.Millisecond, "monitor: with -senders, first re-dial delay after a transport failure (doubles up to 15s)")

		agentAddr = flag.String("agent", "", "run as a fleet agent of the pathload-coord at this control address (host:port); leased paths are measured and pushed to the coordinator (honors -k -n -omega -chi -interval -jitter -workers -seed -export)")
		agentName = flag.String("agent-name", "", "agent: fleet-unique agent name (default the hostname)")
		heartbeat = flag.Duration("heartbeat", 0, "agent: heartbeat cadence (0 derives min(TTL/3, epoch) from the coordinator)")
		pushEvery = flag.Duration("push", 0, "agent: contribution push cadence (0 pushes on every heartbeat)")
		secret    = flag.String("secret", "", "agent: shared authentication secret (required when the coordinator runs with -secret)")

		archiveSpec = flag.String("archive", "", "monitor/agent: durable measurement archive dir[:seal=<bytes>[k|m]][,sync]; series recover and resume across restarts (inspect with pathload-archive)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), flagMatrix)
	}
	flag.Parse()

	// One measurement Config for every mode, so the slack a mode grades
	// with (Config.Slack) is read from the Config its rounds ran under.
	measure := pathload.Config{
		PacketsPerStream: *k,
		StreamsPerFleet:  *n,
		Resolution:       *omega * 1e6,
		GreyResolution:   *chi * 1e6,
	}
	var m crosstraffic.Model
	switch *model {
	case "poisson":
		m = crosstraffic.ModelPoisson
	case "pareto":
		m = crosstraffic.ModelPareto
	case "cbr":
		m = crosstraffic.ModelCBR
	default:
		fmt.Fprintf(os.Stderr, "pathload: unknown model %q\n", *model)
		os.Exit(2)
	}

	if *agentAddr != "" {
		runAgent(agentOpts{
			coord: *agentAddr, name: *agentName, secret: *secret,
			heartbeat: *heartbeat, push: *pushEvery, export: *export,
			interval: *interval, jitter: *jitter, workers: *workers,
			seed: *seed, backoff: *backoff, archive: *archiveSpec,
			measure: measure,
		})
		return
	}

	if !*monitor && *archiveSpec != "" {
		fmt.Fprintln(os.Stderr, "pathload: -archive persists a monitored or agent store; it needs -monitor or -agent")
		os.Exit(2)
	}

	if *monitor {
		if *rounds < 1 {
			fmt.Fprintln(os.Stderr, "pathload: -monitor needs -rounds ≥ 1")
			os.Exit(2)
		}
		if err := validateFlagMatrix(*scen, *meshName, *senders, *schedName, *budget, *stagger, *archiveSpec); err != nil {
			fmt.Fprintf(os.Stderr, "pathload: %v\n", err)
			os.Exit(2)
		}
		if *scen != "" {
			runScenario(*scen, *rounds, *seed, measure)
			return
		}
		runMonitor(monitorOpts{
			paths: *paths, rounds: *rounds, workers: *workers, archive: *archiveSpec,
			interval: *interval, jitter: *jitter, export: *export, mesh: *meshName,
			schedule: *schedName, budget: *budget * 1e6, stagger: *stagger,
			senders: splitSenders(*senders), backoff: *backoff,
			capMbps: *capMbps, util: *util, model: m, sources: *sources, seed: *seed,
			measure: measure,
		})
		return
	}

	topo := experiments.Topology{
		Hops:          *hops,
		TightCap:      *capMbps * 1e6,
		TightUtil:     *util,
		Beta:          *beta,
		Model:         m,
		SourcesPerHop: *sources,
		Seed:          *seed,
	}
	net := topo.Build()
	net.Warmup(3 * netsim.Second)
	prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)

	start := time.Now()
	res, err := pathload.Run(prober, measure)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: %v\n", err)
		os.Exit(1)
	}

	if *verbose {
		maxStreams := *n
		if maxStreams == 0 { // Config reads 0 as the default
			maxStreams = pathload.DefaultStreamsPerFleet
		}
		for i, f := range res.Fleets {
			inc, non, dis := 0, 0, 0
			for _, s := range f.Streams {
				switch s.Kind {
				case pathload.StreamIncreasing:
					inc++
				case pathload.StreamNonIncreasing:
					non++
				default:
					dis++
				}
			}
			fmt.Printf("fleet %2d: R=%7.2f Mb/s L=%4dB T=%8v → %-7v streams=%d/%d (I=%d N=%d discard=%d)\n",
				i, f.Rate/1e6, f.L, f.T, f.Verdict, len(f.Streams), maxStreams, inc, non, dis)
		}
	}
	fmt.Printf("true avail-bw: %.2f Mb/s\n", topo.AvailBw()/1e6)
	fmt.Printf("measured:      %v\n", res)
	fmt.Printf("ADR init:      %.2f Mb/s\n", res.ADR/1e6)
	fmt.Printf("probe time:    %v (virtual), %v (wall)\n", res.Elapsed.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	fmt.Printf("sim events:    %d\n", net.Sim.Events())
}

// flagMatrix documents which -monitor mode flags compose; appended to
// -h after the per-flag defaults. validateFlagMatrix enforces it.
const flagMatrix = `
Monitor-mode flag matrix (with -monitor):
  (no mode flag)   independent single-hop simulator shards; composes with
                   -schedule, -budget, -export
  -mesh <shape>    shared-backbone fleet, sequenced on one virtual clock
                   (replays byte-for-byte); composes with -schedule, -budget,
                   -export; add -stagger for contention-aware admission (paths
                   sharing a tight link never co-probe; admission waits pass in
                   virtual time, so the replay guarantee holds)
  -senders a,b,…   real-network fleet over pathload-snd daemons; composes with
                   -schedule, -budget, -export; excludes -mesh and -stagger
                   (real paths have no shared backbone, hence no conflict graph)
  -scenario spec   one composed adversarial path, rounds split across the
                   scenario's epochs; excludes -mesh, -senders, -stagger, any
                   non-fixed -schedule and -budget (a single path has no fleet
                   to schedule); fleet-wide scenarios live in
                   ` + "`repro -fig fleetscenarios`" + `
  -archive spec    durable store under every mode above except -scenario
                   (which grades against analytic truth and keeps no store):
                   samples write through to a WAL + hash-chained segments, and
                   a restarted monitor recovers the series and resumes rounds
                   where they stopped; inspect with ` + "`pathload-archive`" + `
`

// validateFlagMatrix rejects contradictory -monitor mode combinations
// up front, each error naming the remedy, so a bad invocation fails
// loudly instead of silently ignoring a flag. The accepted matrix is
// the one -h prints (flagMatrix).
func validateFlagMatrix(scen, meshName, senders, schedName string, budget float64, stagger bool, archiveSpec string) error {
	switch {
	case scen != "" && archiveSpec != "":
		return fmt.Errorf("-scenario grades rounds against analytic epoch truth and keeps no store; it excludes -archive (drop one)")
	case scen != "" && meshName != "":
		return fmt.Errorf("-scenario measures one composed path; it excludes -mesh (drop one; fleet-wide scenarios live in `repro -fig fleetscenarios`)")
	case scen != "" && senders != "":
		return fmt.Errorf("-scenario measures one composed simulated path; it excludes -senders (drop one)")
	case scen != "" && stagger:
		return fmt.Errorf("-scenario measures one path; -stagger only staggers a -mesh fleet (drop -stagger)")
	case scen != "" && schedName != "" && schedName != "fixed":
		return fmt.Errorf("-scenario runs its rounds back to back; -schedule %s only applies to a monitored fleet (drop -schedule)", schedName)
	case scen != "" && budget > 0:
		return fmt.Errorf("-scenario measures one path; the fleet-wide -budget cap only applies to a monitored fleet (drop -budget)")
	case senders != "" && meshName != "":
		return fmt.Errorf("-senders measures real paths; it excludes -mesh (drop one)")
	case senders != "" && stagger:
		return fmt.Errorf("-stagger needs -mesh: the conflict graph comes from the shared backbone, which real -senders paths do not have (drop -stagger)")
	case stagger && meshName == "":
		return fmt.Errorf("-stagger needs -mesh (the conflict graph comes from the shared backbone)")
	case schedName == "budgeted" && budget <= 0:
		return fmt.Errorf("-schedule budgeted needs -budget > 0 (the fleet's aggregate probe cap in Mb/s)")
	}
	return nil
}

// runScenario measures one composed scenario: build it, warm it up, and
// run rounds back to back, advancing the scenario's epoch at its round
// boundary so each round is graded against the truth of the epoch it
// ran in. The spec string is untrusted CLI input — scenario.Parse
// rejects malformed specs with an error (FuzzParse holds it to that).
func runScenario(spec string, rounds int, seed int64, cfg pathload.Config) {
	s, err := scenario.Parse(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: -scenario: %v\n", err)
		os.Exit(2)
	}
	inst, err := s.Build(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: -scenario: %v\n", err)
		os.Exit(1)
	}
	inst.Mesh.Warmup(3 * netsim.Second)
	prober := simprobe.New(inst.Sim(), inst.Path.Route, 10*netsim.Millisecond)

	fmt.Printf("scenario %s: %s (%d epoch(s), %d rounds)\n", s.Name, s.Info, inst.Epochs(), rounds)
	if s.FailureMode != "" {
		fmt.Printf("expected failure mode: %s\n", s.FailureMode)
	}
	slack := cfg.Slack()
	fmt.Printf("epoch 0: true avail-bw %.2f Mb/s (tight hop %d)\n", inst.Truth()/1e6, inst.TightHop())

	start := time.Now()
	hit := 0
	for r := 0; r < rounds; r++ {
		if inst.AdvanceToRound(r, rounds, 3*netsim.Second) > 0 {
			fmt.Printf("epoch %d: true avail-bw now %.2f Mb/s (tight hop %d)\n",
				inst.Epoch(), inst.Truth()/1e6, inst.TightHop())
		}
		truth := inst.Truth()
		res, err := pathload.Run(prober, cfg)
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
		s.Name, hit, rounds, slack/1e6, time.Since(start).Round(time.Millisecond))
}

// monitorOpts carries the fleet-mode flags.
type monitorOpts struct {
	paths, rounds, workers int
	interval               time.Duration
	jitter                 float64
	export                 string
	archive                string
	mesh                   string
	schedule               string
	budget                 float64 // bits/s aggregate, 0 = uncapped
	stagger                bool
	senders                []string // real-network sender addresses; empty = simulate
	backoff                time.Duration
	capMbps, util          float64
	model                  crosstraffic.Model
	sources                int
	seed                   int64
	measure                pathload.Config
}

// splitSenders parses the -senders list.
func splitSenders(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// scheduler builds the fleet's re-measurement schedule from the flags:
// the named base schedule, wrapped in a token bucket when -budget caps
// the fleet's aggregate probe bit-rate.
func (o monitorOpts) scheduler() (schedule.Scheduler, error) {
	var s schedule.Scheduler
	switch o.schedule {
	case "", "fixed":
		s = nil // monitor default: Fixed from Interval/Jitter/Seed
	case "adaptive":
		s = &schedule.Adaptive{Base: o.interval, Window: 8 * o.interval}
	case "budgeted":
		if o.budget <= 0 {
			return nil, fmt.Errorf("-schedule budgeted needs -budget > 0")
		}
		s = nil
	default:
		return nil, fmt.Errorf("unknown -schedule %q (have fixed, adaptive, budgeted)", o.schedule)
	}
	if o.budget > 0 {
		inner := s
		if inner == nil {
			inner = &schedule.Fixed{Interval: o.interval, Jitter: o.jitter, Seed: o.seed}
		}
		s = &schedule.Budgeted{Inner: inner, Rate: o.budget}
	}
	return s, nil
}

// runMonitor builds the monitored fleet (independent single-hop shards
// by default, a shared backbone with -mesh), warms it up, and streams
// the monitor's samples as they complete. Every sample also lands in a
// tsstore.Store; with -export the store is served over HTTP and the
// process stays up for scraping after the fleet finishes.
func runMonitor(o monitorOpts) {
	store, closeStore, err := openMonitorStore(o.archive)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: -archive: %v\n", err)
		os.Exit(1)
	}
	defer closeStore()
	var exportURL string
	if o.export != "" {
		ln, err := net.Listen("tcp", o.export)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pathload: -export: %v\n", err)
			os.Exit(1)
		}
		exportURL = fmt.Sprintf("http://%s/", ln.Addr())
		go func() {
			// A scrape endpoint that died is not a degraded mode — the
			// operator asked for -export, so losing it is fatal, not a
			// log line behind a silently dead port.
			err := http.Serve(ln, store.Handler())
			fmt.Fprintf(os.Stderr, "pathload: export: serving %s failed: %v\n", exportURL, err)
			os.Exit(1)
		}()
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
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
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
func buildFleet(o monitorOpts, store *tsstore.Store) (*pathload.Monitor, map[string]float64, error) {
	sched, err := o.scheduler()
	if err != nil {
		return nil, nil, err
	}
	cfg := pathload.MonitorConfig{
		Workers:   o.workers,
		Rounds:    o.rounds,
		Interval:  o.interval,
		Jitter:    o.jitter,
		Seed:      o.seed,
		Config:    o.measure,
		Store:     store,
		Scheduler: sched,
	}
	if o.schedule != "" && o.schedule != "fixed" || o.budget > 0 {
		fmt.Printf("schedule: %s", o.schedule)
		if o.budget > 0 {
			fmt.Printf(" under a %.2f Mb/s aggregate probe budget", o.budget/1e6)
		}
		fmt.Println()
	}
	avail := map[string]float64{}

	if len(o.senders) > 0 {
		// A real-network fleet: every sender address becomes one
		// factory-backed path the monitor dials itself, so a dead or
		// restarted pathload-snd heals the session instead of ending it.
		cfg.Reconnect = pathload.Reconnect{Backoff: o.backoff}
		mon, err := pathload.NewMonitor(cfg)
		if err != nil {
			return nil, nil, err
		}
		used := map[string]bool{}
		for i, addr := range o.senders {
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
		fmt.Printf("real fleet: %d udprobe paths (reconnect backoff %v)\n", len(o.senders), o.backoff)
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
			Model:         o.model,
			SourcesPerHop: o.sources,
			Seed:          o.seed + int64(i)*7_919_317,
		}
		nets[i] = topo.Build()
		avail[experiments.PathID(i)] = topo.AvailBw()
	}
	mon, err := experiments.MonitorShards(nets, cfg)
	return mon, avail, err
}
