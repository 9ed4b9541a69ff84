// Command pathload-coord is the fleet coordinator: it owns a table of
// paths, leases them to `pathload -agent` processes with
// heartbeat-renewed TTLs, rebalances when agents die, and serves the
// federated time series every agent pushes back on the usual scrape
// surface (/metrics, /series, /mrtg) plus a /coord status page.
//
// Example — two agents splitting four simulated paths:
//
//	pathload-coord -listen :8400 -export :9090 \
//	    -paths sim:0.2,sim:0.4,sim:0.6,sim:0.8 &
//	pathload -agent localhost:8400 -agent-name a1 &
//	pathload -agent localhost:8400 -agent-name a2 &
//	curl -s localhost:9090/metrics | grep availbw_samples_total
//
// Paths joined by -conflicts (groups separated by ';', members by ',')
// share a tight link: the coordinator leases each group whole, so the
// owning agent can stagger its members locally:
//
//	pathload-coord -paths a,b,c,d -conflicts a,b;c,d
//
// With -mesh the conflict groups are derived from a topology instead
// of written by hand: the paths are laid over the named backbone shape
// (star, chain, tree, disjoint) in order, and paths sharing a tight
// link conflict:
//
//	pathload-coord -paths a,b,c,d -mesh star
//
// With -archive the coordinator is durable: lease state and every
// federated contribution write through to a WAL + hash-chained
// segment archive, and a restarted coordinator restores them — agents
// re-attach to their prior conflict groups and the federated history
// continues. -secret requires agents to prove a shared secret before
// registering; -register-rate/-push-rate throttle abusive dialers
// per remote host:
//
//	pathload-coord -paths a,b -archive data/coord -secret s3same
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"

	"repro/internal/archive"
	"repro/internal/cli"
	"repro/internal/coord"
	"repro/internal/mesh"
	"repro/internal/schedule"
	"repro/internal/tsstore"
)

func main() {
	var (
		listen      = flag.String("listen", ":8400", "agent control listen address")
		export      = flag.String("export", "", "HTTP listen address for the federated store and /coord status (e.g. :9090)")
		paths       = flag.String("paths", "", "comma-separated path identifiers to keep measured (required); agents resolve them (sim:<util>[@seed] or a pathload-snd address)")
		conflicts   = flag.String("conflicts", "", "conflict groups: members separated by ',', groups by ';' (e.g. a,b;c,d); each group is leased whole (excludes -mesh)")
		meshName    = flag.String("mesh", "", "derive conflict groups from a backbone topology instead of -conflicts: star, chain, tree, disjoint; -paths map onto the shape in order and tight-link sharers conflict")
		meshSeed    = flag.Int64("mesh-seed", 1, "random seed for the -mesh shape")
		ttl         = flag.Duration("ttl", coord.DefaultTTL, "agent liveness TTL: an agent missing heartbeats this long loses its leases")
		epoch       = flag.Duration("epoch", coord.DefaultEpoch, "rebalance cadence")
		budget      = flag.Float64("budget", 0, "fleet-wide probe bit-rate budget in Mb/s, split across agents by leased-path count (0 = uncapped)")
		archiveSpec = flag.String("archive", "", "durable coordinator state dir[:seal=<bytes>[k|m]][,sync]: lease state and federated contributions persist and restore across restarts (inspect with pathload-archive)")
		secret      = flag.String("secret", "", "shared authentication secret agents must prove (HMAC challenge) before registering; requires protocol v2 agents")
		regRate     = flag.Float64("register-rate", 0, "per-remote-host registration rate limit in registrations/second (0 = unlimited)")
		pushRate    = flag.Float64("push-rate", 0, "per-remote-host contribution push rate limit in pushes/second (0 = unlimited)")
		rateBurst   = flag.Float64("rate-burst", 0, "token-bucket depth for -register-rate/-push-rate (0 = default)")
	)
	cli.Parse(flag.CommandLine, os.Args[1:]) // exits 2 on a bad command line

	pathList := cli.Split(*paths)
	if len(pathList) == 0 {
		fmt.Fprintln(os.Stderr, "pathload-coord: -paths is required")
		os.Exit(2)
	}
	if *meshName != "" && *conflicts != "" {
		fmt.Fprintln(os.Stderr, "pathload-coord: -mesh derives the conflict groups; it excludes -conflicts (drop one)")
		os.Exit(2)
	}
	adj := parseConflicts(*conflicts)
	if *meshName != "" {
		var err error
		adj, err = conflictsFromMesh(*meshName, pathList, *meshSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pathload-coord: -mesh: %v\n", err)
			os.Exit(2)
		}
	}

	cfg := coord.ServerConfig{
		Coord: coord.Config{
			Paths:     pathList,
			Conflicts: adj,
			TTL:       *ttl,
			Epoch:     *epoch,
			Budget:    *budget * 1e6,
		},
		Store:        tsstore.Config{},
		AutoTick:     true,
		OnEvent:      func(line string) { fmt.Printf("coord: %s\n", line) },
		Secret:       *secret,
		RegisterRate: *regRate,
		PushRate:     *pushRate,
		RateBurst:    *rateBurst,
	}

	var log *coord.Log
	if *archiveSpec != "" {
		dir, opt, err := archive.ParseSpec(*archiveSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pathload-coord: -archive: %v\n", err)
			os.Exit(2)
		}
		var rep coord.LogReport
		log, rep, err = coord.OpenLog(dir, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pathload-coord: -archive: %v\n", err)
			os.Exit(1)
		}
		rs, problems := log.Restore()
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "pathload-coord: archive restore: %s\n", p)
		}
		fmt.Printf("coord: archive %s — %s; restored %d contributions, lease snapshot %v\n",
			dir, rep.String(), len(rs.Contributions), rs.HaveLeases)
		cfg.Persist = log
		cfg.Restore = &rs
	}

	srv, err := coord.NewServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload-coord: %v\n", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload-coord: -listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("coord: control listening on %s (%d paths, ttl %v, epoch %v)\n",
		ln.Addr(), len(pathList), *ttl, *epoch)

	if *export != "" {
		url := cli.Export("pathload-coord", *export, srv.Handler())
		fmt.Printf("coord: exporting federated store on %s (endpoints: /metrics /series /mrtg /coord)\n", url)
	}

	go func() {
		cli.WaitInterrupt()
		srv.Close()
	}()
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "pathload-coord: %v\n", err)
		os.Exit(1)
	}
}

// conflictsFromMesh derives the conflict adjacency from a backbone
// topology: the user's paths are laid over the named shape in order
// (mesh paths sort by name, so index i of the shape is userPaths[i])
// and two paths conflict when the shape routes them over a shared
// tight link — exactly mesh.TightOverlaps, translated back to the
// user's path identifiers.
func conflictsFromMesh(shape string, userPaths []string, seed int64) (map[string][]string, error) {
	spec, err := mesh.Shape(shape, len(userPaths), seed)
	if err != nil {
		return nil, fmt.Errorf("%v (shapes: %s)", err, strings.Join(mesh.ShapeNames(), ", "))
	}
	m, err := spec.Build()
	if err != nil {
		return nil, err
	}
	name := map[string]string{} // shape path name -> user path id
	for i, p := range m.Paths() {
		name[p.Name] = userPaths[i]
	}
	adj := map[string][]string{}
	for from, tos := range m.TightOverlaps() {
		if len(tos) == 0 {
			continue
		}
		members := make([]string, 0, len(tos))
		for _, to := range tos {
			members = append(members, name[to])
		}
		sort.Strings(members)
		adj[name[from]] = members
	}
	if len(adj) == 0 {
		return nil, nil
	}
	return adj, nil
}

// parseConflicts turns "a,b;c,d" into the adjacency shape
// schedule.ConflictGroups consumes: every pair within a ';'-separated
// group conflicts.
func parseConflicts(s string) map[string][]string {
	var groups [][]string
	for _, group := range strings.Split(s, ";") {
		groups = append(groups, cli.Split(group))
	}
	return schedule.GroupConflicts(groups)
}
