package schedule

import (
	"slices"
	"sort"
	"sync"
)

// An Admission policy gates measurement starts across a fleet: a
// session acquires the policy before every round and runs the
// measurement only while holding the returned release, which it calls
// once. Stagger is the policy: a worker cap, and the contention-aware
// layer the mesh experiments motivate.
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

// Stagger is conflict-graph admission: two paths that conflict — share
// a tight link, per the mesh's link-sharing graph — never measure at
// the same time, so fleet self-interference on the very hop being
// estimated is ruled out by construction (the contention experiment
// measures ≈ −3 Mb/s bias when it is not). An optional worker cap
// bounds total concurrency on top; with no conflicts, Stagger is the
// Monitor's default worker pool.
//
// Wall-clock waiters (Acquire) queue in arrival order. A release admits,
// oldest first, every waiter it made admissible and hands each its
// grant, so one goroutine wakes per admitted path and a path that
// releases and asks again queues behind them. A sequenced fleet has no
// queue: its driver polls TryAcquire in seat order, so the grant order
// is deterministic.
type Stagger struct {
	mu        sync.Mutex
	conflicts map[string]map[string]bool
	busy      map[string]int // holders per path
	slots     int            // remaining worker slots; < 0 means unbounded
	queue     []*grant       // wall-clock waiters, oldest first
	free      []*grant       // released grants, for reuse
}

// A grant is one admission of one path.
type grant struct {
	path    string
	held    bool
	ready   chan struct{} // capacity 1: the release that admits a queued waiter signals here
	release func()
}

// NewStagger builds the policy from an adjacency list (as produced by
// mesh.Mesh.TightOverlaps): conflicts[p] holds the paths p must never
// co-measure with. The graph is symmetrized defensively. workers <= 0
// leaves concurrency unbounded apart from the conflicts.
func NewStagger(conflicts map[string][]string, workers int) *Stagger {
	g := &Stagger{
		conflicts: map[string]map[string]bool{},
		busy:      map[string]int{},
		slots:     workers,
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

// TryAcquire admits the path if no conflicting path is measuring and a
// worker slot is free.
func (g *Stagger) TryAcquire(path string) (func(), bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.admissible(path) {
		return nil, false
	}
	return g.take(g.grant(path)), true
}

// Acquire admits the path at once if TryAcquire would, and otherwise
// queues it until a release hands it a grant or cancel closes. Each
// release leaves only inadmissible waiters queued, so admitting a
// newcomer at once never passes one of them.
func (g *Stagger) Acquire(path string, cancel <-chan struct{}) (func(), bool) {
	g.mu.Lock()
	if g.admissible(path) {
		defer g.mu.Unlock()
		return g.take(g.grant(path)), true
	}
	w := g.grant(path)
	g.queue = append(g.queue, w)
	g.mu.Unlock()

	select {
	case <-w.ready:
		return w.release, true
	case <-cancel:
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.held {
		<-w.ready // granted as cancel closed: pass the slot on
		g.releaseLocked(w)
	} else {
		i := slices.Index(g.queue, w)
		g.queue = slices.Delete(g.queue, i, i+1)
		g.free = append(g.free, w)
	}
	return nil, false
}

// admissible reports whether the path may start now: a worker slot is
// free and no conflicting path is measuring. Callers hold g.mu.
func (g *Stagger) admissible(path string) bool {
	if g.slots == 0 {
		return false
	}
	for o := range g.conflicts[path] {
		if g.busy[o] > 0 {
			return false
		}
	}
	return true
}

// grant returns a recycled grant, or a new one, for the path, so a warm
// Stagger admits and releases without allocating. Callers hold g.mu.
func (g *Stagger) grant(path string) *grant {
	if n := len(g.free); n > 0 {
		w := g.free[n-1]
		g.free, w.path = g.free[:n-1], path
		return w
	}
	w := &grant{path: path, ready: make(chan struct{}, 1)}
	w.release = func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		if w.held { // a second call is a no-op until the grant is reused
			g.releaseLocked(w)
		}
	}
	return w
}

// take marks the grant's path busy and spends a worker slot, returning
// the grant's release. Callers hold g.mu.
func (g *Stagger) take(w *grant) func() {
	w.held = true
	g.busy[w.path]++
	if g.slots > 0 {
		g.slots--
	}
	return w.release
}

// releaseLocked frees the grant's slot, then admits the queued waiters
// that became admissible, oldest first. Callers hold g.mu.
func (g *Stagger) releaseLocked(w *grant) {
	w.held = false
	g.busy[w.path]--
	if g.slots >= 0 {
		g.slots++
	}
	g.free = append(g.free, w)
	g.queue = slices.DeleteFunc(g.queue, func(q *grant) bool {
		if !g.admissible(q.path) {
			return false
		}
		g.take(q)
		q.ready <- struct{}{}
		return true
	})
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
