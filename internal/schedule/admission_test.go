package schedule

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkersBoundsConcurrency: a Stagger with no conflicts is the
// Monitor's default worker pool. At most N acquisitions are ever held
// at once, and a cancelled wait reports ok == false without leaking a
// slot.
func TestWorkersBoundsConcurrency(t *testing.T) {
	w := NewStagger(nil, 2)
	var inflight, maxSeen int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, ok := w.Acquire("p", nil)
			if !ok {
				t.Error("uncancelled Acquire failed")
				return
			}
			cur := atomic.AddInt32(&inflight, 1)
			for {
				max := atomic.LoadInt32(&maxSeen)
				if cur <= max || atomic.CompareAndSwapInt32(&maxSeen, max, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			atomic.AddInt32(&inflight, -1)
			release()
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt32(&maxSeen); got > 2 {
		t.Fatalf("%d concurrent holders, want ≤ 2", got)
	}

	// Cancellation: fill the pool, then a cancelled waiter must give up.
	r1, _ := w.Acquire("a", nil)
	r2, _ := w.Acquire("b", nil)
	cancel := make(chan struct{})
	close(cancel)
	if _, ok := w.Acquire("c", cancel); ok {
		t.Fatal("cancelled Acquire succeeded")
	}
	// TryAcquire is the same rule without the wait: refused while the
	// pool is full, admitted once a slot frees, and its release returns
	// the slot.
	if _, ok := w.TryAcquire("c"); ok {
		t.Fatal("TryAcquire succeeded on a full pool")
	}
	r1()
	r3, ok := w.TryAcquire("c")
	if !ok {
		t.Fatal("TryAcquire refused a free slot")
	}
	if _, ok := w.TryAcquire("d"); ok {
		t.Fatal("TryAcquire overfilled the pool")
	}
	r2()
	r3()

	// Unbounded pool admits immediately, either way.
	u := NewStagger(nil, 0)
	for _, acquire := range []func() (func(), bool){
		func() (func(), bool) { return u.Acquire("p", nil) },
		func() (func(), bool) { return u.TryAcquire("p") },
	} {
		release, ok := acquire()
		if !ok {
			t.Fatal("unbounded pool blocked")
		}
		release()
	}
}

// TestStaggerNeverCoSchedulesConflicts: under heavy concurrent load, two
// paths that share a tight link are never admitted simultaneously,
// while non-conflicting paths still run in parallel.
func TestStaggerNeverCoSchedulesConflicts(t *testing.T) {
	// Star-like graph: every pX conflicts with every other pX; the
	// lone-* paths conflict with nobody.
	conflicts := map[string][]string{
		"p0": {"p1", "p2"},
		"p1": {"p2"}, // p1–p0 arrives only via symmetrization
	}
	g := NewStagger(conflicts, 0)
	if got := g.conflicts["p1"]; len(got) != 2 || !got["p0"] || !got["p2"] {
		t.Fatalf("p1 conflicts = %v, want [p0 p2] (symmetrized)", got)
	}

	var mu sync.Mutex
	busy := map[string]bool{}
	var loneOverlap int32
	var wg sync.WaitGroup
	paths := []string{"p0", "p1", "p2", "lone-0", "lone-1"}
	for _, p := range paths {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				release, ok := g.Acquire(p, nil)
				if !ok {
					t.Errorf("%s: Acquire failed", p)
					return
				}
				mu.Lock()
				for o := range g.conflicts[p] { // read-only once built
					if busy[o] {
						t.Errorf("%s admitted while conflicting %s is measuring", p, o)
					}
				}
				if p == "lone-0" && busy["lone-1"] || p == "lone-1" && busy["lone-0"] {
					atomic.AddInt32(&loneOverlap, 1)
				}
				busy[p] = true
				mu.Unlock()
				time.Sleep(50 * time.Microsecond)
				mu.Lock()
				delete(busy, p)
				mu.Unlock()
				release()
			}
		}()
	}
	wg.Wait()
	if loneOverlap == 0 {
		t.Log("disjoint paths never overlapped; stagger may be over-serializing (timing-dependent, not fatal)")
	}
}

// TestStaggerWorkerCap: the optional worker cap composes with the
// conflict graph.
func TestStaggerWorkerCap(t *testing.T) {
	g := NewStagger(nil, 2)
	var inflight, maxSeen int32
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		p := fmt.Sprintf("p%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, ok := g.Acquire(p, nil)
			if !ok {
				t.Error("Acquire failed")
				return
			}
			cur := atomic.AddInt32(&inflight, 1)
			for {
				max := atomic.LoadInt32(&maxSeen)
				if cur <= max || atomic.CompareAndSwapInt32(&maxSeen, max, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			atomic.AddInt32(&inflight, -1)
			release()
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt32(&maxSeen); got > 2 {
		t.Fatalf("%d concurrent holders, want ≤ 2", got)
	}

	// The cap binds TryAcquire too, conflicts or none.
	r1, ok1 := g.TryAcquire("a")
	r2, ok2 := g.TryAcquire("b")
	if !ok1 || !ok2 {
		t.Fatal("TryAcquire refused a free worker slot")
	}
	if _, ok := g.TryAcquire("c"); ok {
		t.Fatal("TryAcquire exceeded the worker cap")
	}
	r1()
	if r3, ok := g.TryAcquire("c"); !ok {
		t.Fatal("TryAcquire refused after a release")
	} else {
		r3()
	}
	r2()
}

// TestStaggerCancel: a waiter blocked on a conflict gives up when
// cancelled, without corrupting the busy set.
func TestStaggerCancel(t *testing.T) {
	g := NewStagger(map[string][]string{"a": {"b"}}, 0)
	releaseA, ok := g.Acquire("a", nil)
	if !ok {
		t.Fatal("first Acquire failed")
	}
	cancel := make(chan struct{})
	done := make(chan bool)
	go func() {
		_, ok := g.Acquire("b", cancel)
		done <- ok
	}()
	close(cancel)
	if ok := <-done; ok {
		t.Fatal("cancelled conflicting Acquire succeeded")
	}
	// TryAcquire applies the same rule without waiting: the conflicting
	// path is refused (and takes nothing), an unrelated one admitted.
	if _, ok := g.TryAcquire("b"); ok {
		t.Fatal("TryAcquire admitted b while conflicting a is measuring")
	}
	if releaseC, ok := g.TryAcquire("c"); !ok {
		t.Fatal("TryAcquire refused a conflict-free path")
	} else {
		releaseC()
	}
	releaseA()
	// After the cancel, b is admissible again.
	releaseB, ok := g.Acquire("b", nil)
	if !ok {
		t.Fatal("post-cancel Acquire failed")
	}
	releaseB()

	// Double release must be harmless (the Monitor releases exactly
	// once, but a once-guard keeps misuse from corrupting slots).
	releaseB()
}

// TestConflictGroups pins the canonical partition: connected components
// of the conflict graph, members and groups sorted, independent of the
// order the universe or the adjacency present themselves in.
func TestConflictGroups(t *testing.T) {
	conflicts := map[string][]string{
		"p3": {"p1"},
		"p1": {"p2"},
		"p5": {"p4"},
	}
	want := [][]string{{"p0"}, {"p1", "p2", "p3"}, {"p4", "p5"}}
	// Shuffled path universes must not change the result.
	universes := [][]string{
		{"p0", "p1", "p2", "p3", "p4", "p5"},
		{"p5", "p3", "p0", "p2", "p4", "p1"},
		{"p2", "p4", "p0", "p5", "p1", "p3"},
	}
	for _, u := range universes {
		got := ConflictGroups(u, conflicts)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("ConflictGroups(%v) = %v, want %v", u, got, want)
		}
	}

	// A chain through a path outside the universe still glues its
	// endpoints into one group; the outsider itself is absent.
	glued := ConflictGroups([]string{"a", "c"}, map[string][]string{"a": {"b"}, "b": {"c"}})
	if fmt.Sprint(glued) != fmt.Sprint([][]string{{"a", "c"}}) {
		t.Errorf("chain through outsider: %v, want [[a c]]", glued)
	}

	// Self-conflicts and an empty adjacency degenerate to singletons.
	single := ConflictGroups([]string{"b", "a"}, map[string][]string{"a": {"a"}})
	if fmt.Sprint(single) != fmt.Sprint([][]string{{"a"}, {"b"}}) {
		t.Errorf("singletons: %v, want [[a] [b]]", single)
	}
	if got := ConflictGroups(nil, nil); len(got) != 0 {
		t.Errorf("empty universe: %v, want none", got)
	}
}

// TestGroupConflicts: expanding groups into pairs and partitioning the
// pairs back returns the groups, canonical whatever their order.
func TestGroupConflicts(t *testing.T) {
	groups := [][]string{{"p4", "p1"}, {"p0"}, {"p5", "p2", "p3"}}
	paths := []string{"p3", "p0", "p5", "p1", "p4", "p2"}
	want := [][]string{{"p0"}, {"p1", "p4"}, {"p2", "p3", "p5"}}
	if got := ConflictGroups(paths, GroupConflicts(groups)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ConflictGroups(GroupConflicts(%v)) = %v, want %v", groups, got, want)
	}
	if adj := GroupConflicts([][]string{{"a"}, nil}); adj != nil {
		t.Errorf("no pairs: %v, want nil", adj)
	}
}

// queued waits until a wall-clock waiter is in the Stagger's queue.
func queued(t *testing.T, g *Stagger) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		g.mu.Lock()
		k := len(g.queue)
		g.mu.Unlock()
		if k == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters queued, want 1", k)
		}
		runtime.Gosched()
	}
}

// TestStaggerNoOvertake: a release hands the slot to the oldest waiter
// it admits, and a path that releases and asks again at once joins the
// queue behind it. a holds, b waits on the conflict (or on the one
// worker slot), a releases and asks again: b must measure first, every
// cycle. A wait that wakes every waiter to race for the slot lets a win
// nearly every time.
func TestStaggerNoOvertake(t *testing.T) {
	for name, g := range map[string]*Stagger{
		"clique":   NewStagger(map[string][]string{"a": {"b"}}, 0),
		"1-worker": NewStagger(nil, 1),
	} {
		t.Run(name, func(t *testing.T) {
			overtakes := 0
			for range 100 {
				releaseA, _ := g.Acquire("a", nil)
				order := make(chan string, 2)
				go func() {
					release, ok := g.Acquire("b", nil)
					if !ok {
						t.Error("uncancelled Acquire failed")
					}
					order <- "b"
					release()
				}()
				queued(t, g)
				releaseA()
				releaseA, _ = g.Acquire("a", nil)
				order <- "a"
				releaseA()
				if first := <-order; first != "b" {
					overtakes++
				}
				<-order
			}
			if overtakes > 0 {
				t.Fatalf("a re-acquired ahead of the queued b in %d of 100 cycles, want 0", overtakes)
			}
		})
	}
}

// TestStaggerCancelRacingGrant: a waiter whose cancel closes as a
// release admits it either measures (and releases) or gives up, and
// either way the policy ends with every slot free and none extra: the
// grant a cancelled waiter received is passed on, not kept or doubled.
// Odd cycles close cancel and release under one hold of the lock, so
// the waiter often sees its cancel only after the grant.
func TestStaggerCancelRacingGrant(t *testing.T) {
	g := NewStagger(map[string][]string{"a": {"b"}}, 1)
	for i := range 500 {
		g.mu.Lock()
		a := g.grant("a")
		g.take(a)
		g.mu.Unlock()
		cancel := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			if release, ok := g.Acquire("b", cancel); ok {
				release()
			}
		}()
		queued(t, g)
		if i%2 == 0 {
			go close(cancel)
			a.release()
		} else {
			g.mu.Lock()
			close(cancel)
			runtime.Gosched()
			g.releaseLocked(a)
			g.mu.Unlock()
		}
		<-done
	}
	g.mu.Lock()
	if g.slots != 1 || g.busy["a"] != 0 || g.busy["b"] != 0 || len(g.queue) != 0 {
		t.Errorf("after the races: slots %d, busy %v, queue empty %v; want 1 slot, none busy, empty", g.slots, g.busy, len(g.queue) == 0)
	}
	g.mu.Unlock()
	r, ok := g.TryAcquire("b")
	if !ok {
		t.Fatal("a slot leaked: TryAcquire refused on an idle policy")
	}
	if _, ok := g.TryAcquire("c"); ok {
		t.Fatal("a slot was doubled: the one-worker cap admitted two")
	}
	r()
}

// TestStaggerAllocationFree: once its grants are warm, admitting and
// releasing a path allocates nothing, through either method.
func TestStaggerAllocationFree(t *testing.T) {
	g := NewStagger(map[string][]string{"a": {"b"}}, 2)
	cycle := func() {
		release, _ := g.Acquire("a", nil)
		release()
		release, _ = g.TryAcquire("b")
		release()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm acquire/release cycle allocates %v objects, want 0", allocs)
	}
}
