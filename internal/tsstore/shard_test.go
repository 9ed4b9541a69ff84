package tsstore

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	pathload "repro"
)

// workerSizes are the store sizes the worker-count tests render: empty,
// one path, either side of one shard and of two, and a store that
// splits into three shards at GOMAXPROCS 4.
var workerSizes = []int{0, 1, shardMin - 1, shardMin, shardMin + 1, 2*shardMin - 1, 2 * shardMin, 2*shardMin + 1, 1000}

// workerStore builds a store of n paths and three mesh links. Every
// fifth path has only failed rounds, so its quantiles are NaN and its
// windowed families skip it; on the others every fourth round failed.
func workerStore(n int) *Store {
	st := New(Config{Capacity: 8})
	for p := range n {
		id := fmt.Sprintf("path-%04d", p)
		for r := range 10 {
			s := pathload.Sample{Path: id, Round: r, At: time.Duration(r) * time.Second}
			if p%5 == 4 || r%4 == 3 {
				s.Err = io.ErrUnexpectedEOF
			} else {
				mid := 1e6 * float64(10+p%90+r%7)
				s.Result = pathload.Result{Lo: mid - 0.4e6, Hi: mid + 0.4e6, Elapsed: time.Second}
			}
			st.Observe(s)
		}
	}
	for l := range 3 {
		st.ObserveLink(fmt.Sprintf("link-%d", l), 0, 0, time.Second, 0.25*float64(l+1), 100e6)
	}
	return st
}

// workerFederation builds a federation of n paths from three agents.
// Agent a skips every path p with (p+a)%4 == 0, so paths have one to
// three agents; agent-c pushes no digest and only failed rounds for
// every seventh path, and a path that only it contributes has NaN
// quantiles.
func workerFederation(n int) *Federation {
	f := NewFederation(Config{Capacity: 8})
	for p := range n {
		id := fmt.Sprintf("path-%04d", p)
		for a, agent := range []string{"agent-a", "agent-b", "agent-c"} {
			if (p+a)%4 == 0 {
				continue
			}
			failed := a == 2 && p%7 == 0
			c := Contribution{Seq: 1, Total: 12, Errors: 1}
			if !failed {
				c.Digest = NewDigest(16)
			}
			for r := range 5 + a + p%4 {
				pt := Point{Round: r, At: time.Duration(r) * time.Second, Span: time.Second}
				if failed || r%5 == 4 {
					pt.Err = "timeout"
				} else {
					pt.Lo = 1e6 * float64(10+p%50+3*a+r%6)
					pt.Hi = pt.Lo + 0.5e6*float64(a+1)
					c.Digest.Add(pt.Mid())
				}
				c.Points = append(c.Points, pt)
			}
			f.Push(agent, id, c)
		}
	}
	return f
}

// atProcs runs fn with GOMAXPROCS set to procs.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// scrapeText renders st's exposition.
func scrapeText(t *testing.T, st *Store) string {
	t.Helper()
	var b strings.Builder
	if err := st.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// firstDiff names the first line where a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(al), len(bl))
}

// TestScrapeBytesIndependentOfWorkers: a scrape renders the same bytes
// however many shards its paths split into.
func TestScrapeBytesIndependentOfWorkers(t *testing.T) {
	for _, n := range workerSizes {
		st := workerStore(n)
		var want string
		atProcs(1, func() { want = scrapeText(t, st) })
		for _, procs := range []int{2, 4} {
			var got string
			atProcs(procs, func() { got = scrapeText(t, st) })
			if got != want {
				t.Errorf("%d paths: the scrape at GOMAXPROCS %d differs from the one at 1: %s", n, procs, firstDiff(got, want))
			}
		}
	}
	atProcs(4, func() {
		if k := shards(1000); k != 3 {
			t.Errorf("1000 paths at GOMAXPROCS 4 split into %d shards, want 3", k)
		}
	})
}

// TestSnapshotBytesIndependentOfWorkers: a three-agent federation's
// snapshot, merged and then scraped at any GOMAXPROCS, renders the same
// bytes.
func TestSnapshotBytesIndependentOfWorkers(t *testing.T) {
	for _, n := range workerSizes {
		f := workerFederation(n)
		var want string
		atProcs(1, func() { want = scrapeText(t, f.Snapshot()) })
		for _, procs := range []int{2, 4} {
			var got string
			atProcs(procs, func() { got = scrapeText(t, f.Snapshot()) })
			if got != want {
				t.Errorf("%d paths: the snapshot's scrape at GOMAXPROCS %d differs from the one at 1: %s", n, procs, firstDiff(got, want))
			}
		}
	}
}

// A guardedWriter fails its failAt-th Write (never, when 0) and reports
// a Write that overlaps another or comes after its scrape returned.
type guardedWriter struct {
	t              *testing.T
	failAt         int32
	writes         atomic.Int32
	inside, closed atomic.Bool
}

var errGone = errors.New("scraper gone")

func (w *guardedWriter) Write(p []byte) (int, error) {
	if w.inside.Swap(true) {
		w.t.Error("two Writes at once")
	}
	defer w.inside.Store(false)
	if w.closed.Load() {
		w.t.Error("Write after WritePrometheus returned")
	}
	if w.writes.Add(1) == w.failAt {
		return 0, errGone
	}
	return len(p), nil
}

// settle waits for the goroutine count to come back to base.
func settle(t *testing.T, base int, after string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, want %d", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScrapeLeavesNoGoroutineBehind: the helpers of a three-shard scrape
// are gone once it returns, whether it wrote everything or its writer
// failed at any one chunk; and only the caller ever calls the writer,
// never twice at once, never after returning.
func TestScrapeLeavesNoGoroutineBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	st := workerStore(1000)
	if k := shards(1000); k != 3 {
		t.Fatalf("1000 paths split into %d shards, want 3", k)
	}
	base := runtime.NumGoroutine()
	whole := guardedWriter{t: t}
	if err := st.WritePrometheus(&whole); err != nil {
		t.Fatal(err)
	}
	whole.closed.Store(true)
	settle(t, base, "a whole scrape")
	writes := whole.writes.Load()
	if writes < 4 {
		t.Fatalf("1000 paths rendered in %d writes, want several", writes)
	}
	for n := int32(1); n <= writes; n++ {
		w := guardedWriter{t: t, failAt: n}
		if err := st.WritePrometheus(&w); err != errGone {
			t.Errorf("write %d failed: WritePrometheus returned %v", n, err)
		}
		w.closed.Store(true)
		if got := w.writes.Load(); got != n {
			t.Errorf("write %d failed: writer called %d times", n, got)
		}
		settle(t, base, fmt.Sprintf("a scrape whose write %d failed", n))
	}
}
