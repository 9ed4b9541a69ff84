package experiments

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestForRuns pins the run pool's contract: n = 0 starts nothing;
// every index in [0, n) runs exactly once for n below, at and far above
// GOMAXPROCS; no more than GOMAXPROCS runs are ever in flight, yet
// GOMAXPROCS of them can be at once; and at GOMAXPROCS 1 the runs
// happen in index order. Not parallel: it sets GOMAXPROCS, which the
// package's parallel tests only see after it has restored it.
func TestForRuns(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	forRuns(0, func(int) { t.Error("n = 0 started a run") })

	for _, n := range []int{procs - 1, procs, 100 * procs} {
		counts := make([]atomic.Int32, n)
		var inFlight, highWater atomic.Int32
		forRuns(n, func(i int) {
			cur := inFlight.Add(1)
			for hw := highWater.Load(); cur > hw && !highWater.CompareAndSwap(hw, cur); hw = highWater.Load() {
			}
			runtime.Gosched()
			counts[i].Add(1)
			inFlight.Add(-1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("n=%d: index %d ran %d times, want once", n, i, c)
			}
		}
		if hw := highWater.Load(); hw > procs {
			t.Errorf("n=%d: %d runs in flight at once, GOMAXPROCS is %d", n, hw, procs)
		}
	}

	// Each of GOMAXPROCS runs waits until all of them have started: a
	// pool narrower than GOMAXPROCS would time out here.
	var started atomic.Int32
	forRuns(procs, func(int) {
		started.Add(1)
		for deadline := time.Now().Add(10 * time.Second); started.Load() < procs; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Errorf("only %d of %d runs in flight after 10s", started.Load(), procs)
				return
			}
		}
	})

	runtime.GOMAXPROCS(1)
	var order []int
	forRuns(10, func(i int) { order = append(order, i) })
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(order, want) {
		t.Errorf("at GOMAXPROCS 1 runs happened in order %v, want %v", order, want)
	}
}
