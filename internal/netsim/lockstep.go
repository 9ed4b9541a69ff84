package netsim

import (
	"fmt"
	"runtime"
	"sync"
)

// A Lockstep advances a set of independent Simulators to common barrier
// times. Each simulator is a shard — its own links, traffic, and event
// queue — but all shards share one virtual timeline: after AdvanceTo(t)
// every shard's Now() equals t. Between barriers the shards are advanced
// concurrently by a pool of persistent worker goroutines, each pinned to
// a static modulo slice of the shard list, so a fleet of per-path
// simulations scales with the host's cores — no per-barrier goroutine
// or channel churn — while each individual simulator stays
// single-threaded and deterministic.
//
// This is the sharded answer to "many concurrent measurements on one
// simulated clock": paths that must not interact get a shard each and a
// shared timeline; paths that share links belong in one simulator (see
// internal/simprobe.Sequencer for co-scheduling multiple probers on it).
//
// A Lockstep must not be advanced while any shard is being driven from
// elsewhere (e.g. by a prober mid-measurement), and Add/AdvanceTo must
// be called from one goroutine. Call Close when done with the set to
// release the workers; a dropped Lockstep also releases them when the
// garbage collector notices (a cleanup closes the pool), so older
// callers that never Close do not leak goroutines forever.
type Lockstep struct {
	st       *lsState
	parallel int
	now      Time
}

// lsState is the part of a Lockstep shared with its workers. Workers
// reference only this state, never the Lockstep itself, so an
// unreachable Lockstep can be collected and its cleanup can stop the
// pool.
type lsState struct {
	sims  []*Simulator
	start []chan Time   // one per worker: barrier time to advance to
	done  chan struct{} // worker completion signals, len(start) per barrier
	quit  chan struct{}
	stop  sync.Once
}

// shutdown releases the worker pool; safe to call more than once.
func (st *lsState) shutdown() {
	st.stop.Do(func() {
		if st.quit != nil {
			close(st.quit)
		}
	})
}

// NewLockstep groups sims into a lockstep set. parallel bounds the
// number of worker goroutines; 0 selects GOMAXPROCS. All simulators
// must currently agree on the time (freshly created ones do: they start
// at zero).
func NewLockstep(parallel int, sims ...*Simulator) *Lockstep {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	l := &Lockstep{parallel: parallel, st: &lsState{}}
	for _, s := range sims {
		l.Add(s)
	}
	return l
}

// Add attaches a shard. The simulator must not be ahead of the set's
// common time; it is advanced to it on the next barrier.
func (l *Lockstep) Add(s *Simulator) {
	if s.Now() > l.now {
		panic(fmt.Sprintf("netsim: lockstep at %v cannot adopt simulator already at %v", l.now, s.Now()))
	}
	l.st.sims = append(l.st.sims, s)
}

// Now returns the common barrier time reached by the last advance.
func (l *Lockstep) Now() Time { return l.now }

// Close stops the worker pool. The Lockstep must not be advanced after
// Close. Closing is idempotent and closing a never-advanced Lockstep is
// a no-op.
func (l *Lockstep) Close() { l.st.shutdown() }

// startWorkers spins up the persistent pool on the first advance. Each
// worker owns the shards at indices ≡ w (mod pool size): the pinning is
// static, so a shard is always advanced by the same goroutine.
func (l *Lockstep) startWorkers() {
	st := l.st
	n := l.parallel
	st.start = make([]chan Time, n)
	st.done = make(chan struct{}, n)
	st.quit = make(chan struct{})
	for w := 0; w < n; w++ {
		st.start[w] = make(chan Time, 1)
		go func(w int) {
			for {
				select {
				case t := <-st.start[w]:
					for i := w; i < len(st.sims); i += n {
						st.sims[i].Run(t)
					}
					st.done <- struct{}{}
				case <-st.quit:
					return
				}
			}
		}(w)
	}
	// The pool must die with the Lockstep even if the owner never calls
	// Close; workers reference only st, so an unreachable Lockstep is
	// collectable and this cleanup fires.
	runtime.AddCleanup(l, func(st *lsState) { st.shutdown() }, st)
}

// AdvanceTo runs every shard to the absolute time t and blocks until
// all have reached it. Shards run concurrently but never share state,
// so the combined result is identical to advancing them one by one.
func (l *Lockstep) AdvanceTo(t Time) {
	if t < l.now {
		panic(fmt.Sprintf("netsim: lockstep advancing backwards from %v to %v", l.now, t))
	}
	if len(l.st.sims) == 0 {
		l.now = t
		return
	}
	if l.st.start == nil {
		l.startWorkers()
	}
	for _, c := range l.st.start {
		c <- t
	}
	for range l.st.start {
		<-l.st.done
	}
	l.now = t
}

// AdvanceFor advances every shard by d past the current barrier.
func (l *Lockstep) AdvanceFor(d Time) { l.AdvanceTo(l.now + d) }
