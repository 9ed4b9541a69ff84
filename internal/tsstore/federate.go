package tsstore

import (
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"

	pathload "repro"
)

// A Contribution is one agent's latest view of one path's series: the
// retained points, the all-time counters, and the eviction-proof
// quantile digest, stamped with an agent-local monotone sequence
// number. It is what `pathload -agent` pushes to a coordinator.
type Contribution struct {
	// Seq orders a (agent, path) stream of pushes: a Federation applies
	// a contribution only when its Seq exceeds the one it holds, so
	// re-delivered or reordered pushes are no-ops instead of
	// double-counts. Agents bump it on every push.
	Seq uint64
	// Total and Errors mirror Store.Totals: samples ever observed
	// (retained + evicted) and how many failed.
	Total, Errors uint64
	// Points is the agent's retained window, chronological.
	Points []Point
	// Digest is the all-time digest of OK mid-range estimates.
	Digest *Digest
}

// clone deep-copies the contribution into fresh buffers: what
// Federation.Contribution hands out, so a reader never shares a buffer
// with the federation.
func (c Contribution) clone() Contribution {
	c.Points = append([]Point(nil), c.Points...)
	if c.Digest != nil {
		c.Digest = c.Digest.clone()
	}
	return c
}

// overwrite deep-copies c into held's buffers, which the federation
// owns outright: its Points backing array and its digest's centroid
// slice take c's values, growing only when c holds more. A held
// contribution that is empty (a slot's first push) or has no digest
// (after a nil-digest push) has nothing to grow, so those buffers are
// allocated here. A nil c.Digest drops held's.
func (held Contribution) overwrite(c Contribution) Contribution {
	c.Points = append(held.Points[:0], c.Points...)
	if c.Digest != nil {
		if held.Digest == nil {
			held.Digest = new(Digest)
		}
		held.Digest.copyFrom(c.Digest)
		c.Digest = held.Digest
	}
	return c
}

// A Federation merges per-agent Contributions into one global store —
// the coordinator's side of digest federation. Its merge discipline is
// what makes multi-agent retention trustworthy:
//
//   - Replace, don't accumulate: the Federation keeps only the latest
//     contribution per (path, agent), so an agent re-pushing its state
//     (same or stale Seq) is a no-op — redelivery-idempotent by
//     construction, which a lossy control channel requires.
//   - Canonical merge order: snapshots merge contributions in sorted
//     (path, agent) order, never arrival order. Digest merges are only
//     exactly order-invariant while under the centroid budget, so the
//     canonical order is what extends byte-identical snapshots to
//     arbitrarily shuffled delivery schedules (pinned by the federation
//     property tests).
//
// All methods are safe for concurrent use.
type Federation struct {
	cfg Config

	mu       sync.RWMutex
	contribs map[string]map[string]Contribution // path → agent → latest
}

// NewFederation creates an empty federation whose materialized stores
// use cfg (ring capacity, digest budget). It panics like New on
// negative values.
func NewFederation(cfg Config) *Federation {
	return &Federation{cfg: cfg.validated(), contribs: map[string]map[string]Contribution{}}
}

// Push offers an agent's contribution for a path. It is applied only
// when c.Seq is newer than what the federation already holds for that
// (path, agent); applied reports which. Pushing is cheap: merging is
// deferred to Snapshot, and an applied push is copied into the buffers
// the slot already holds, so a slot pushed the same shape every round
// allocates nothing after its first push. c's buffers are copied,
// never kept.
func (f *Federation) Push(agent, path string, c Contribution) (applied bool) {
	if agent == "" || path == "" {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	byAgent := f.contribs[path]
	if byAgent == nil {
		byAgent = map[string]Contribution{}
		f.contribs[path] = byAgent
	}
	prev, ok := byAgent[agent]
	if ok && c.Seq <= prev.Seq {
		return false
	}
	byAgent[agent] = prev.overwrite(c)
	return true
}

// Contribution returns the latest contribution held for (agent, path);
// ok is false when none has been applied.
func (f *Federation) Contribution(agent, path string) (c Contribution, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	c, ok = f.contribs[path][agent]
	if ok {
		c = c.clone()
	}
	return c, ok
}

// Paths returns the federated path identifiers, sorted.
func (f *Federation) Paths() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.contribs))
	for p := range f.contribs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Agents returns the agents contributing to a path, sorted.
func (f *Federation) Agents(path string) []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.contribs[path]))
	for a := range f.contribs[path] {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Snapshot materializes the federation into a Store: per path, the
// union of every agent's points (agents in sorted order, each agent's
// window chronological, ring-evicted to the configured capacity),
// summed totals, and the canonical-order merge of the per-agent
// digests. The result serves the whole existing scrape surface
// (/metrics, /series, /mrtg) unchanged — federation happens below the
// export layer, not in it.
//
// The materialization is a pure function of the held contributions, so
// two federations holding the same state render byte-identical
// snapshots regardless of push arrival order. The paths' merges, each
// touching only its own series, run on the shards WritePrometheus
// would split them into, a helper goroutine per shard beyond the
// first, so the read lock is held for as short a time as the cores
// allow. The shard count changes nothing in the result.
func (f *Federation) Snapshot() *Store {
	f.mu.RLock()
	defer f.mu.RUnlock()
	// Paths in sorted order, so that each one ensure adds to the store's
	// sorted path list is an append, into room made for all of them.
	paths := slices.Sorted(maps.Keys(f.contribs))
	st := newStore(f.cfg, nil, len(paths))
	k := shards(len(paths))
	if k > 1 {
		// Shards only read st's maps, so every series exists first. One
		// shard creates each as it merges it, while it is in cache.
		for _, path := range paths {
			st.ensure(path)
		}
	}
	var helpers sync.WaitGroup
	for s := 1; s < k; s++ {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			f.merge(st, paths[s*len(paths)/k:(s+1)*len(paths)/k])
		}()
	}
	f.merge(st, paths[:len(paths)/k])
	helpers.Wait()
	return st
}

// merge merges each path's contributions into its series in st, which
// is still private to Snapshot, so no lock is needed. Several merges
// read the federation's and the store's maps at once; only a lone one
// adds series. The caller holds f.mu for reading.
func (f *Federation) merge(st *Store, paths []string) {
	var agents []string // one scratch list, refilled per path
	for _, path := range paths {
		byAgent := f.contribs[path]
		agents = agents[:0]
		points, centroids := 0, 0
		for a, c := range byAgent {
			agents = append(agents, a)
			points += len(c.Points)
			if c.Digest != nil {
				centroids += len(c.Digest.cs)
			}
		}
		sort.Strings(agents)
		se := st.ensure(path)
		// Sized once, for every agent's points and Merge below; of the
		// points in agent order only the newest limit survive, so no
		// older one is inserted.
		se.reserve(points)
		se.digest.reserve(centroids)
		skip := max(0, points-se.limit)
		for _, a := range agents {
			c := byAgent[a]
			n := min(skip, len(c.Points))
			skip -= n
			for _, p := range c.Points[n:] {
				se.insert(p)
			}
			se.total += c.Total
			se.errs += c.Errors
			se.digest.Merge(c.Digest)
		}
	}
}

// Handler serves the federated store over HTTP with the same endpoints
// as Store.Handler (/, /metrics, /series, /mrtg), materializing a
// fresh snapshot per request so scrapes always see the latest merged
// state.
func (f *Federation) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.Snapshot().Handler().ServeHTTP(w, r)
	})
}

// Resume is where a monitor writing to this store continues path: the
// round after the last retained point, at that point's At + Span. It
// makes the store the monitor's resume hook (pathload.MonitorConfig.Store)
// for lease handoffs within one process and restarts over a recovered
// archive alike; a path the store has never seen resumes at the zero
// state, a fresh path.
func (st *Store) Resume(path string) pathload.PathState {
	if p, ok := st.Last(path); ok {
		return pathload.PathState{Round: p.Round + 1, At: p.At + p.Span}
	}
	return pathload.PathState{}
}
