package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/coord"
	"repro/internal/crosstraffic"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"
	"repro/internal/udprobe"

	pathload "repro"
)

// agentProvider resolves a leased path identifier to a prober factory:
//
//   - "sim:<util>[@seed]" builds a fresh single-hop 10 Mb/s Poisson
//     simulator at that utilization per (re)dial — the self-contained
//     form used by tests and demos ("sim:0.4", "sim:0.6@7"). Any other
//     path with the "sim:" prefix is an error, never a network address.
//   - anything else is a pathload-snd control address dialed over UDP
//     (the -senders transport), re-dialed by the monitor on failure.
func agentProvider(path string) (pathload.ProberFactory, error) {
	if spec, ok := strings.CutPrefix(path, "sim:"); ok {
		util, seed, err := parseSimSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("want sim:<util in [0,1)>[@seed]: %v", err)
		}
		return func() (pathload.Prober, error) {
			topo := experiments.Topology{
				Hops:          1,
				TightCap:      10e6,
				TightUtil:     util,
				Model:         crosstraffic.ModelPoisson,
				SourcesPerHop: 10,
				Seed:          seed,
			}
			n := topo.Build()
			n.Warmup(3 * netsim.Second)
			return simprobe.New(n.Sim, n.Links, 10*netsim.Millisecond), nil
		}, nil
	}
	addr := path
	return func() (pathload.Prober, error) {
		return udprobe.Dial(addr, udprobe.ProberConfig{})
	}, nil
}

// parseSimSpec parses the "<util>[@seed]" after a "sim:" prefix.
func parseSimSpec(spec string) (util float64, seed int64, err error) {
	seed = 1
	if at := strings.IndexByte(spec, '@'); at >= 0 {
		if seed, err = strconv.ParseInt(spec[at+1:], 10, 64); err != nil {
			return 0, 0, err
		}
		spec = spec[:at]
	}
	if util, err = strconv.ParseFloat(spec, 64); err != nil {
		return 0, 0, err
	}
	if !(util >= 0 && util < 1) { // NaN too
		return 0, 0, fmt.Errorf("utilization %v outside [0,1)", util)
	}
	return util, seed, nil
}

// runAgent joins the fleet: register with the coordinator, measure
// whatever it leases, push the series back, until interrupted.
func runAgent(o *options) {
	name := o.agentName
	if name == "" {
		h, err := os.Hostname()
		if err != nil || h == "" {
			fmt.Fprintln(os.Stderr, "pathload: -agent needs -agent-name (no usable hostname)")
			os.Exit(2)
		}
		name = h
	}
	// With -archive the agent's local store is durable: a restarted
	// agent recovers its series and the monitor resumes each leased
	// path's rounds (the agent's reconcile path already resumes from
	// the store it is handed).
	store, closeStore, err := openMonitorStore(o.archive)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: -archive: %v\n", err)
		os.Exit(1)
	}
	defer closeStore()
	agent, err := coord.NewAgent(coord.AgentConfig{
		Coord:      o.agent,
		Name:       name,
		Secret:     o.secret,
		LocalStore: store,
		Provider:   agentProvider,
		Heartbeat:  o.heartbeat,
		PushEvery:  o.push,
		Monitor: pathload.MonitorConfig{
			Workers:   o.workers,
			Interval:  o.interval,
			Jitter:    o.jitter,
			Seed:      o.seed,
			Config:    o.measure,
			Reconnect: pathload.Reconnect{Backoff: o.backoff},
		},
		OnEvent: func(line string) { fmt.Printf("agent: %s\n", line) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload: %v\n", err)
		os.Exit(2)
	}

	if o.export != "" {
		fmt.Printf("agent: exporting local store on %s\n", cli.Export("pathload", o.export, agent.Store().Handler()))
	}

	fmt.Printf("agent: %s joining coordinator %s\n", name, o.agent)
	go func() {
		cli.WaitInterrupt()
		agent.Stop()
	}()
	if err := agent.Run(); err != nil {
		closeStore() // os.Exit skips defers; the archive still holds the WAL tail
		fmt.Fprintf(os.Stderr, "pathload: agent: %v\n", err)
		os.Exit(1)
	}
}
