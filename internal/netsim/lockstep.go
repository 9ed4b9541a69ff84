package netsim

import (
	"fmt"
	"runtime"
	"sync"
)

// A Lockstep advances a set of independent Simulators to common barrier
// times. Each simulator is a shard — its own links, traffic, and event
// queue — but all shards share one virtual timeline: after AdvanceTo(t)
// every shard's Now() equals t. Each barrier runs the shards on at most
// parallel goroutines, goroutine w owning the shards ≡ w (mod
// goroutines), and returns when all have reached it; no goroutine
// outlives the barrier, and each simulator stays single-threaded and
// deterministic.
//
// Paths that must not interact get a shard each and a shared timeline;
// paths that share links belong in one simulator (see
// internal/simprobe.Sequencer for co-scheduling multiple probers on it).
//
// A Lockstep must not be advanced while any shard is being driven from
// elsewhere (e.g. by a prober mid-measurement), and AdvanceTo must be
// called from one goroutine.
type Lockstep struct {
	sims     []*Simulator
	parallel int
	now      Time
}

// NewLockstep groups sims into a lockstep set. parallel bounds the
// number of goroutines a barrier runs on; 0 selects GOMAXPROCS. All
// simulators must still be at time zero, the set's starting time
// (freshly created ones are).
func NewLockstep(parallel int, sims ...*Simulator) *Lockstep {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	for _, s := range sims {
		if s.Now() > 0 {
			panic(fmt.Sprintf("netsim: lockstep at 0 cannot adopt simulator already at %v", s.Now()))
		}
	}
	return &Lockstep{sims: sims, parallel: parallel}
}

// Now returns the common barrier time reached by the last advance.
func (l *Lockstep) Now() Time { return l.now }

// Close releases nothing, since a barrier leaves no goroutine behind;
// calling it is harmless.
func (l *Lockstep) Close() {}

// AdvanceTo runs every shard to the absolute time t and blocks until
// all have reached it. Shards run concurrently but never share state,
// so the combined result is identical to advancing them one by one.
func (l *Lockstep) AdvanceTo(t Time) {
	if t < l.now {
		panic(fmt.Sprintf("netsim: lockstep advancing backwards from %v to %v", l.now, t))
	}
	n := min(l.parallel, len(l.sims))
	var wg sync.WaitGroup
	wg.Add(n)
	for w := range n {
		go func() {
			defer wg.Done()
			for i := w; i < len(l.sims); i += n {
				l.sims[i].Run(t)
			}
		}()
	}
	wg.Wait()
	l.now = t
}

// AdvanceFor advances every shard by d past the current barrier.
func (l *Lockstep) AdvanceFor(d Time) { l.AdvanceTo(l.now + d) }
