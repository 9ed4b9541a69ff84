package schedule

import (
	"sort"
	"sync"
)

// An Admission policy gates measurement starts across a fleet: a
// session acquires the policy before every round and runs the
// measurement only while holding the returned release. The Monitor's
// original worker semaphore is the Workers policy; Stagger adds the
// contention-aware layer the mesh experiments motivate.
//
// TryAcquire is the admissibility rule itself: it admits the path if it
// may begin right now and never blocks, which is what a driver that
// waits in virtual time polls (simprobe.SequencedDriver). Acquire is
// "try, else wait" over it for wall-clock sessions: it blocks until the
// path may begin, or cancel closes, in which case ok is false and no
// slot is held. Implementations must be safe for concurrent use from
// every session goroutine.
type Admission interface {
	Acquire(path string, cancel <-chan struct{}) (release func(), ok bool)
	TryAcquire(path string) (release func(), ok bool)
}

// Workers is the bounded worker pool: at most N measurements in flight
// at once, fleet-wide, path identity ignored. It is the Monitor's
// default admission policy.
type Workers struct {
	sem chan struct{}
}

// NewWorkers returns a pool of n slots; n <= 0 admits unboundedly.
func NewWorkers(n int) *Workers {
	w := &Workers{}
	if n > 0 {
		w.sem = make(chan struct{}, n)
	}
	return w
}

// TryAcquire takes a slot if one is free.
func (w *Workers) TryAcquire(string) (func(), bool) {
	if w.sem == nil {
		return func() {}, true
	}
	select {
	case w.sem <- struct{}{}:
		return w.release, true
	default:
		return nil, false
	}
}

// Acquire takes a slot, or reports ok == false when cancel wins.
func (w *Workers) Acquire(path string, cancel <-chan struct{}) (func(), bool) {
	if release, ok := w.TryAcquire(path); ok {
		return release, true
	}
	select {
	case w.sem <- struct{}{}:
		return w.release, true
	case <-cancel:
		return nil, false
	}
}

func (w *Workers) release() { <-w.sem }

// Stagger is conflict-graph admission: two paths that conflict — share
// a tight link, per the mesh's link-sharing graph — never measure at
// the same time, so fleet self-interference on the very hop being
// estimated is ruled out by construction (the contention experiment
// measures ≈ −3 Mb/s bias when it is not). An optional worker cap
// bounds total concurrency on top.
//
// Paths absent from the conflict graph have no conflicts: they are
// only worker-gated, so a Stagger with an empty graph degenerates to
// Workers.
//
// Admission order among wall-clock waiters (Acquire) is not FIFO: every
// release wakes all waiters and they race for the next slot, so on a
// dense conflict graph (e.g. a star, where every pair conflicts) a path
// can lose the race repeatedly and fall behind its siblings. Long-lived
// fleets on dense graphs should keep a non-zero re-measurement interval
// so sessions spend most time idling rather than contending. A
// sequenced fleet has no such race: its driver polls TryAcquire for the
// waiters in seat order, so the grant order is deterministic.
type Stagger struct {
	mu        sync.Mutex
	conflicts map[string]map[string]bool
	busy      map[string]bool
	slots     int // remaining worker slots; < 0 means unbounded
	changed   chan struct{}
}

// NewStagger builds the policy from an adjacency list (as produced by
// mesh.Mesh.TightOverlaps): conflicts[p] holds the paths p must never
// co-measure with. The graph is symmetrized defensively. workers <= 0
// leaves concurrency unbounded apart from the conflicts.
func NewStagger(conflicts map[string][]string, workers int) *Stagger {
	g := &Stagger{
		conflicts: map[string]map[string]bool{},
		busy:      map[string]bool{},
		slots:     workers,
		changed:   make(chan struct{}),
	}
	if workers <= 0 {
		g.slots = -1
	}
	add := func(a, b string) {
		if g.conflicts[a] == nil {
			g.conflicts[a] = map[string]bool{}
		}
		g.conflicts[a][b] = true
	}
	for p, others := range conflicts {
		for _, o := range others {
			if o == p {
				continue
			}
			add(p, o)
			add(o, p)
		}
	}
	return g
}

// Conflicts returns the symmetrized adjacency for the path, sorted —
// for diagnostics and tests.
func (g *Stagger) Conflicts(path string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.conflicts[path]))
	for o := range g.conflicts[path] {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// TryAcquire admits the path if no conflicting path is measuring and a
// worker slot is free.
func (g *Stagger) TryAcquire(path string) (func(), bool) {
	release, _ := g.try(path)
	return release, release != nil
}

// Acquire blocks until TryAcquire would admit the path.
func (g *Stagger) Acquire(path string, cancel <-chan struct{}) (func(), bool) {
	for {
		release, changed := g.try(path)
		if release != nil {
			return release, true
		}
		select {
		case <-changed:
		case <-cancel:
			return nil, false
		}
	}
}

// try admits the path if it may start now. Otherwise it returns the
// channel the next release closes — read under the same lock as the
// refusal, so a waiter cannot miss the release that would admit it.
func (g *Stagger) try(path string) (release func(), changed <-chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.slots == 0 {
		return nil, g.changed
	}
	for o := range g.conflicts[path] {
		if g.busy[o] {
			return nil, g.changed
		}
	}
	g.busy[path] = true
	if g.slots > 0 {
		g.slots--
	}
	var once sync.Once
	return func() { once.Do(func() { g.release(path) }) }, nil
}

// GroupConflicts expands conflict groups into the pairwise adjacency
// NewStagger and ConflictGroups consume: every member of a group
// conflicts with every other member, in group order. A group of fewer
// than two members adds nothing; with no pair at all it returns nil.
func GroupConflicts(groups [][]string) map[string][]string {
	var adj map[string][]string
	for _, members := range groups {
		for _, p := range members {
			for _, o := range members {
				if o != p {
					if adj == nil {
						adj = map[string][]string{}
					}
					adj[p] = append(adj[p], o)
				}
			}
		}
	}
	return adj
}

// ConflictGroups partitions paths into the connected components of the
// conflict graph (the same adjacency shape NewStagger consumes, e.g.
// mesh.Mesh.TightOverlaps): two paths land in the same group exactly
// when a conflict chain connects them. Paths absent from the adjacency
// are singleton groups.
//
// Stagger can only serialize conflicting measurements that run in the
// same process, so a coordinator distributing paths across agents must
// keep each group on one agent — this is the function that tells it
// which paths travel together. The result is canonical regardless of
// map iteration or input order: members sorted within each group,
// groups sorted by their first member, so lease assignments derived
// from it are reproducible.
func ConflictGroups(paths []string, conflicts map[string][]string) [][]string {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] == x {
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}
	add := func(x string) {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
	}
	union := func(a, b string) {
		add(a)
		add(b)
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, p := range paths {
		add(p)
	}
	for p, others := range conflicts {
		for _, o := range others {
			if o != p {
				union(p, o)
			}
		}
	}
	// Only the requested paths appear in the output; adjacency entries
	// outside the universe still glue groups together.
	members := map[string][]string{}
	for _, p := range paths {
		r := find(p)
		members[r] = append(members[r], p)
	}
	groups := make([][]string, 0, len(members))
	for _, g := range members {
		sort.Strings(g)
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}

// release frees the path's slot and wakes every waiter.
func (g *Stagger) release(path string) {
	g.mu.Lock()
	delete(g.busy, path)
	if g.slots >= 0 {
		g.slots++
	}
	close(g.changed)
	g.changed = make(chan struct{})
	g.mu.Unlock()
}
