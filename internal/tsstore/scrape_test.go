package tsstore_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tsstore"

	pathload "repro"
)

// fullStore builds a store of paths whose rings are all full (each has
// wrapped once), every eighth round failed.
func fullStore(paths, capacity int) *tsstore.Store {
	st := tsstore.New(tsstore.Config{Capacity: capacity})
	for r := 0; r < capacity+capacity/2; r++ {
		for p := 0; p < paths; p++ {
			id := fmt.Sprintf("path-%04d", p)
			at := time.Duration(r) * 5 * time.Second
			if r%8 == 7 {
				st.Observe(pathload.Sample{Path: id, Round: r, At: at, Err: io.ErrUnexpectedEOF})
				continue
			}
			mid := 1e6 * float64(10+p%90+r%7)
			st.Observe(sample(id, r, at, mid-0.4e6, mid+0.4e6))
		}
	}
	return st
}

// TestScrapeAllocationBudget: a scrape allocates a fixed number of
// objects however many paths it renders, and at most what a copy of
// the path list would take per path — the path list's copy, the rows,
// the text buffers and the helpers are pooled (0 B a path measured),
// and nothing grows with the rings. A full DefaultCapacity ring is 90 kB a
// path, so that tier runs on a tenth of the paths.
func TestScrapeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	for _, tier := range []struct{ capacity, few, many int }{
		{32, 100, 1000},
		{tsstore.DefaultCapacity, 10, 100},
	} {
		few, many := fullStore(tier.few, tier.capacity), fullStore(tier.many, tier.capacity)
		render := func(st *tsstore.Store) {
			if err := st.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		atFew := testing.AllocsPerRun(20, func() { render(few) })
		atMany := testing.AllocsPerRun(20, func() { render(many) })
		if atFew != atMany || atMany > 2 {
			t.Errorf("capacity %d: %v allocations at %d paths, %v at %d; want the same, at most 2",
				tier.capacity, atFew, tier.few, atMany, tier.many)
		}

		// The least of a few windows: a pool misses now and then (a
		// collection empties it, or the goroutine moves to another P),
		// and a miss bills a whole regrown buffer to the window it hits.
		const windows, renders = 5, 20
		perPath, total := uint64(math.MaxUint64), uint64(0)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range renders {
				render(many)
			}
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
			perPath = min(perPath, (after.TotalAlloc-before.TotalAlloc)/renders/uint64(tier.many))
		}
		if perPath > 32 {
			t.Errorf("capacity %d: a scrape allocates %d B per path, want at most 32", tier.capacity, perPath)
		}
		// All windows together forgive only misses: one per P before each
		// P's pool holds its own buffer, and two for collections, each a
		// fresh 68 kB text buffer and row slice (144 B a path). An
		// allocation that comes back every few scrapes passes the least
		// window but not this.
		miss := uint64(72<<10 + 160*tier.many)
		if most := 32*windows*renders*uint64(tier.many) + uint64(runtime.GOMAXPROCS(0)+2)*miss; total > most {
			t.Errorf("capacity %d: %d scrapes allocate %d B, want at most %d (32 B per path and %d pool misses)",
				tier.capacity, windows*renders, total, most, runtime.GOMAXPROCS(0)+2)
		}
	}
}

// TestFederationSnapshotAllocationBudget: a snapshot allocates per path
// the merged series itself — a ring of 64-byte points and one digest
// sized once for every agent's centroids — and nothing regrown. Two
// agents each hold a full ring and a full digest of every path: 3.7 kB
// a path measured, 2 kB of it the ring. With 88-byte points and a
// digest grown again for the second agent's merge it was 5.5 kB.
func TestFederationSnapshotAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const paths, capacity, budget = 200, 32, 4096
	fed := tsstore.NewFederation(tsstore.Config{Capacity: capacity})
	for p := range paths {
		id := fmt.Sprintf("path-%04d", p)
		for a, agent := range []string{"agent-a", "agent-b"} {
			c := tsstore.Contribution{Seq: 1, Total: 2 * capacity, Digest: tsstore.NewDigest(0)}
			for r := range capacity {
				lo := 1e6 * float64(10+p%90+a+r%7)
				c.Points = append(c.Points, tsstore.Point{Round: r, At: time.Duration(r) * 5 * time.Second, Lo: lo, Hi: lo + 0.8e6})
			}
			for i := range 2 * tsstore.DefaultDigestSize {
				c.Digest.Add(1e6 + float64(2*i+a)*1e4)
			}
			fed.Push(agent, id, c)
		}
	}
	const snaps = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range snaps {
		fed.Snapshot()
	}
	runtime.ReadMemStats(&after)
	perPath := (after.TotalAlloc - before.TotalAlloc) / snaps / paths
	t.Logf("%d B per path", perPath)
	if perPath > budget {
		t.Errorf("a two-agent snapshot allocates %d B per path, want at most %d", perPath, budget)
	}
}

// A scrapedPath is one path's row as a scraper read it back.
type scrapedPath struct {
	values    map[string]float64 // family (less the pathload_availbw_ prefix) → value
	quantiles []float64          // in exposition order
}

// parseScrape reads an exposition of plainly named paths and links back
// into rows.
func parseScrape(t *testing.T, text string) (paths map[string]*scrapedPath, links map[string]map[string]float64) {
	t.Helper()
	paths, links = map[string]*scrapedPath{}, map[string]map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, "{")
		labels, value, ok := strings.Cut(rest, "} ")
		v, err := strconv.ParseFloat(value, 64)
		if !ok || err != nil {
			t.Errorf("unparsable sample line %q", line)
			continue
		}
		key, id, _ := strings.Cut(labels, "=")
		id, _, _ = strings.Cut(strings.TrimPrefix(id, `"`), `"`)
		if key == "link" {
			if links[id] == nil {
				links[id] = map[string]float64{}
			}
			links[id][strings.TrimPrefix(name, "pathload_link_")] = v
			continue
		}
		p := paths[id]
		if p == nil {
			p = &scrapedPath{values: map[string]float64{}}
			paths[id] = p
		}
		if strings.Contains(labels, "quantile=") {
			p.quantiles = append(p.quantiles, v)
		} else {
			p.values[strings.TrimPrefix(name, "pathload_availbw_")] = v
		}
	}
	return paths, links
}

// TestScrapeConcurrentConsistency: with four writers feeding the store,
// every row two scrapers read is of one epoch — counts, the newest
// range, the window bounds and the link gauges agree with each other.
func TestScrapeConcurrentConsistency(t *testing.T) {
	const paths, scrapes = 12, 40
	st := tsstore.New(tsstore.Config{Capacity: 8})
	stop := make(chan struct{})
	var writers, scrapers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			link := fmt.Sprintf("link-%d", w)
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				at := time.Duration(r) * time.Second
				for p := w; p < paths; p += 4 {
					id := fmt.Sprintf("path-%02d", p)
					if r%5 == 4 {
						st.Observe(pathload.Sample{Path: id, Round: r, At: at, Err: io.ErrUnexpectedEOF})
						continue
					}
					// The level drifts, so a row mixing two epochs shows a
					// newest range outside its window.
					mid := 1e6 * float64(50+(r*7+p)%40)
					st.Observe(sample(id, r, at, mid-0.3e6, mid+0.3e6))
				}
				// Window r is this link's (r+1)-th: capacity says which
				// total belongs beside it.
				st.ObserveLink(link, r, at, time.Second, 0.5, float64(r+1))
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < scrapes; i++ {
				var sb strings.Builder
				if err := st.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				rows, links := parseScrape(t, sb.String())
				for id, p := range rows {
					v := p.values
					if v["retained_points"] > v["samples_total"] || v["errors_total"] > v["samples_total"] {
						t.Errorf("%s: retained %v, errors %v of %v samples", id, v["retained_points"], v["errors_total"], v["samples_total"])
					}
					if _, ok := v["lo_bps"]; ok {
						if !(v["window_min_bps"] <= v["lo_bps"] && v["lo_bps"] <= v["hi_bps"] && v["hi_bps"] <= v["window_max_bps"]) {
							t.Errorf("%s: newest range [%v, %v] outside its window [%v, %v]",
								id, v["lo_bps"], v["hi_bps"], v["window_min_bps"], v["window_max_bps"])
						}
					}
					for k := 1; k < len(p.quantiles); k++ {
						if p.quantiles[k] < p.quantiles[k-1] {
							t.Errorf("%s: quantiles not ascending: %v", id, p.quantiles)
						}
					}
				}
				for name, v := range links {
					if v["windows_total"] != v["capacity_bps"] {
						t.Errorf("%s: %v windows beside window %v's gauges", name, v["windows_total"], v["capacity_bps"])
					}
				}
				runtime.Gosched()
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}

// A parkedWriter blocks in its first Write until released.
type parkedWriter struct {
	entered chan struct{} // closed when the first Write begins
	release chan struct{}
	once    sync.Once
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestScrapeHoldsNoLockAcrossWrite: a scraper stalled inside Write must
// not stall ingest.
func TestScrapeHoldsNoLockAcrossWrite(t *testing.T) {
	st := fullStore(300, 8)
	w := &parkedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan error, 1)
	go func() { scraped <- st.WritePrometheus(w) }()
	<-w.entered

	observed := make(chan struct{})
	go func() {
		st.Observe(sample("path-0000", 99, time.Hour, 1e6, 2e6))
		st.ObserveLink("core", 0, 0, time.Second, 0.5, 155e6)
		close(observed)
	}()
	select {
	case <-observed:
	case <-time.After(10 * time.Second):
		t.Error("Observe blocked behind a scraper parked in Write")
	}
	close(w.release)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
}

// A failingWriter fails its failAt-th Write (never, when 0) and counts
// the calls it gets.
type failingWriter struct {
	failAt, writes, largest int
}

var errScraperGone = errors.New("scraper gone")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	if w.writes == w.failAt {
		return 0, errScraperGone
	}
	return len(p), nil
}

// TestScrapeStopsAtFirstWriteError: the exposition arrives in chunks of
// at most 64 kB; whichever of them fails, the writer is not called
// again and gets its own error back.
func TestScrapeStopsAtFirstWriteError(t *testing.T) {
	st := fullStore(300, 8)
	var whole failingWriter
	if err := st.WritePrometheus(&whole); err != nil {
		t.Fatal(err)
	}
	if whole.largest > 64<<10 || whole.writes < 2 || whole.writes > 10 {
		t.Fatalf("300 paths rendered in %d writes, the largest %d B; want a handful of at most 64 kB", whole.writes, whole.largest)
	}
	for n := 1; n <= whole.writes; n++ {
		w := failingWriter{failAt: n}
		if err := st.WritePrometheus(&w); err != errScraperGone {
			t.Errorf("write %d failed: WritePrometheus returned %v", n, err)
		}
		if w.writes != n {
			t.Errorf("write %d failed: writer called %d times", n, w.writes)
		}
	}
}
