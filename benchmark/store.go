package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	pathload "repro"
	"repro/internal/archive"
	"repro/internal/tsstore"
)

// store_pipeline: no simulator. Seeded synthetic samples go through an
// archive-backed store while it is being scraped — ingest (writes)
// beside scrape (reads) on the retention and durability half of the
// stack, which the fleet workloads barely touch.

const (
	storePaths      = 1000
	storeWarmRounds = 32 // = ring capacity: every ring is full when timing starts
	storeRounds     = 80
	storeFedEvery   = 10 // rounds between seal + federation push + federated scrape
	// storeScrapePool is how many consecutive scrapes make one latency
	// sample (their mean). A scrape allocates about as much as the live
	// heap, so a collector cycle falls in every second or third one and
	// single scrapes are bimodal; a run's median then says which mode had
	// the majority, not what a scrape costs.
	storeScrapePool = 4
	storePathsSmoke = 200
	storeRoundSmoke = 8
	storeSyncProbe  = 200 // appends of the Sync: true probe
)

var storeConfig = tsstore.Config{Capacity: storeWarmRounds}

// Span names of the store workload's call sites.
const (
	spanIngest      = "tsstore.observe_batch"     // one round's Observe calls, archive-backed
	spanIngestMem   = "tsstore.observe_batch_mem" // the same batch into a memory-only store
	spanScrape      = "tsstore.write_prometheus"
	spanSeal        = "archive.seal"
	spanFedPush     = "tsstore.federation_push_all"
	spanFedScrape   = "tsstore.fed_scrape" // Snapshot + WritePrometheus, the coordinator's /metrics
	spanFedSnapshot = "tsstore.federation_snapshot"
	spanClose       = "archive.close"
	spanOpenStore   = "archive.open_store" // over the archive the block wrote: restart
	spanVerify      = "archive.verify"
)

type storePipeline struct {
	paths       int // of the traced blocks, for the per-path figures
	records     int // records recovered in traced blocks
	archiveSize int64
	scrapeBytes int64
	outDir      string
}

// A countingWriter is the scraper: it takes the bytes and keeps none.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// synthRound overwrites batch with round r of the synthetic series:
// every path measures once per round, its range wandering around a
// per-path level.
func synthRound(batch []pathload.Sample, levels []float64, r int, rng *rand.Rand) {
	for i := range batch {
		mid := levels[i] * (0.9 + 0.2*rng.Float64())
		width := 0.2e6 + 1.8e6*rng.Float64()
		s := &batch[i]
		s.Round = r
		s.At = time.Duration(r)*5*time.Second + time.Duration(rng.Int63n(int64(time.Second)))
		s.Result.Lo, s.Result.Hi = mid-width/2, mid+width/2
		s.Result.Elapsed = 3*time.Second + time.Duration(rng.Int63n(int64(3*time.Second)))
		s.Result.Bits = 1e6 + 3e6*rng.Float64()
	}
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

func (f *storePipeline) block(c blockCtx) (b blockResult, err error) {
	paths, rounds := storePaths, storeRounds
	if c.smoke {
		paths, rounds = storePathsSmoke, storeRoundSmoke
	}
	// call times fn, as a span when the block is traced.
	var lane *lane
	if c.tracer != nil {
		lane = c.tracer.lane("store")
	}
	var inCalls time.Duration
	var depth int
	call := func(name string, fn func()) (d time.Duration) {
		depth++
		if lane != nil {
			d = lane.time(name, fn)
		} else {
			t := time.Now()
			fn()
			d = time.Since(t)
		}
		if depth--; depth == 0 {
			inCalls += d
		}
		return d
	}
	fail := func(format string, args ...any) { b.problems = append(b.problems, fmt.Sprintf(format, args...)) }

	dir := filepath.Join(c.outDir, fmt.Sprintf("archive-%d-%d", os.Getpid(), c.index))
	if err := os.RemoveAll(dir); err != nil {
		return b, err
	}
	defer os.RemoveAll(dir)
	opts := archive.Options{Sync: false, SealBytes: 0}

	// Set-up is what stands between an empty directory and a restarted
	// store with every ring full: open, ingest the warm rounds (nothing
	// else runs, so this is ingest alone), close, and recover from the
	// archive. The timed rounds then run on the recovered store.
	t0 := time.Now()
	st, _, _, err := archive.OpenStore(dir, opts, storeConfig)
	if err != nil {
		return b, err
	}
	rng := rand.New(rand.NewSource(c.seed))
	batch := make([]pathload.Sample, paths)
	levels := make([]float64, paths)
	for i := range batch {
		batch[i].Path = fmt.Sprintf("path-%05d", i)
		levels[i] = 2e6 + 20e6*rng.Float64()
	}
	for r := 0; r < storeWarmRounds; r++ {
		synthRound(batch, levels, r, rng)
		for i := range batch {
			st.Observe(batch[i])
		}
	}
	if err := st.Close(); err != nil {
		return b, err
	}
	st, backend, rep, err := archive.OpenStore(dir, opts, storeConfig)
	if err != nil {
		return b, fmt.Errorf("set-up recovery: %w", err)
	}
	b.setup = time.Since(t0)
	if got := recoveredSamples(st, fail); got != uint64(paths*storeWarmRounds) {
		fail("set-up recovered %d samples, want %d (%v)", got, paths*storeWarmRounds, rep)
	}
	fed := tsstore.NewFederation(storeConfig)
	var mem *tsstore.Store // traced blocks: the memory-only twin
	if lane != nil {
		mem = tsstore.New(storeConfig)
	}

	h := sha256.New()
	var seq uint64
	want := uint64(paths * (storeWarmRounds + rounds))
	var size int64
	var recovered uint64
	var pooled time.Duration
	measured(&b, func() {
		for r := 0; r < rounds; r++ {
			synthRound(batch, levels, storeWarmRounds+r, rng)
			call(spanIngest, func() {
				for i := range batch {
					st.Observe(batch[i])
				}
			})
			if mem != nil { // a reference, not part of the pipeline: off the clock
				lane.time(spanIngestMem, func() {
					for i := range batch {
						mem.Observe(batch[i])
					}
				})
			}
			var scraped countingWriter
			d := call(spanScrape, func() { err = st.WritePrometheus(&scraped) })
			if err != nil {
				return
			}
			if pooled += d; (r+1)%storeScrapePool == 0 {
				b.latencyMs = append(b.latencyMs, float64(pooled)/1e6/storeScrapePool)
				pooled = 0
			}
			fmt.Fprintf(h, "scrape %d %d\n", r, scraped.n)
			f.scrapeBytes = scraped.n

			if (r+1)%storeFedEvery != 0 {
				continue
			}
			call(spanSeal, func() { err = backend.Archive().Seal() })
			if err != nil {
				return
			}
			// What coord.Agent.pushAll sends, from two agents.
			seq++
			call(spanFedPush, func() {
				for _, p := range st.Paths() {
					total, errs := st.Totals(p)
					contrib := tsstore.Contribution{Seq: seq, Total: total, Errors: errs,
						Points: st.Snapshot(p), Digest: st.DigestSnapshot(p)}
					fed.Push("agent-a", p, contrib)
					fed.Push("agent-b", p, contrib)
				}
			})
			var fedScraped countingWriter
			call(spanFedScrape, func() {
				var snap *tsstore.Store
				call(spanFedSnapshot, func() { snap = fed.Snapshot() })
				err = snap.WritePrometheus(&fedScraped)
			})
			if err != nil {
				return
			}
			fmt.Fprintf(h, "fed %d %d\n", r, fedScraped.n)
		}
		if n, last := st.BackendErrs(); n != 0 {
			b.failed += int(n)
			fail("%d backend errors, last: %v", n, last)
		}

		// Restart: close, recover the store from what was written, verify.
		// All three are on the clock.
		call(spanClose, func() { err = st.Close() })
		if err != nil {
			return
		}
		if size, err = dirSize(dir); err != nil {
			return
		}
		var st2 *tsstore.Store
		var rep2 archive.StoreReport
		call(spanOpenStore, func() { st2, _, rep2, err = archive.OpenStore(dir, opts, storeConfig) })
		if err != nil {
			err = fmt.Errorf("recovery: %w", err)
			return
		}
		recovered = recoveredSamples(st2, fail)
		if recovered != want {
			fail("recovered %d samples, want %d (%v)", recovered, want, rep2)
			if recovered < want {
				b.failed += int(want - recovered)
			}
		}
		if err = st2.Close(); err != nil {
			return
		}
		var ver *archive.VerifyReport
		call(spanVerify, func() { ver, err = archive.Verify(dir) })
		if err == nil && !ver.OK() {
			fail("archive does not verify: %v", ver.Problems)
		}
	})
	if err != nil {
		return b, err
	}
	// Time inside the timed calls, the collector running as it would:
	// generating samples and the checks between calls are off the clock.
	b.wall = inCalls
	b.ops = paths * rounds
	// The timed rounds' share, in whole bytes: a sum of whole numbers over
	// however many blocks a run measured divides to the same bits.
	b.ioBytes = float64(size * int64(b.ops) / int64(want))
	b.good, b.graded = int(recovered), int(want)
	fmt.Fprintf(h, "recovered %d\n", recovered)
	b.hash = hex.EncodeToString(h.Sum(nil))
	if lane != nil {
		f.paths, f.outDir = paths, c.outDir
		f.records += int(want)
		f.archiveSize += size
	}
	return b, nil
}

// recoveredSamples sums the all-time totals of a just-opened store and
// checks that every ring came back full.
func recoveredSamples(st *tsstore.Store, fail func(string, ...any)) (total uint64) {
	for _, p := range st.Paths() {
		n, _ := st.Totals(p)
		total += n
		if st.Len(p) != storeConfig.Capacity {
			fail("path %s recovered %d retained points, want %d", p, st.Len(p), storeConfig.Capacity)
			break
		}
	}
	return total
}

func (f *storePipeline) layers(rep *report, _ *tracer, spans []span, _ []blockResult) {
	by := totalsByName(spans)
	durs := func(name string) []float64 { // µs
		if s := by[name]; s != nil {
			return s.Durs
		}
		return nil
	}
	n := func(name string) string { return fmt.Sprintf("n=%d", len(durs(name))) }
	perSample := 1 / float64(f.paths)

	ingest, ingestMem := durs(spanIngest), durs(spanIngestMem)
	rep.set("tsstore.ingest_us_per_sample_p50", quantile(ingest, 0.5)*perSample, n(spanIngest))
	rep.set("tsstore.ingest_us_per_sample_p90", quantile(ingest, 0.9)*perSample, n(spanIngest))
	rep.set("tsstore.observe_mem_ns", median(ingestMem)*perSample*1e3, n(spanIngestMem))
	appendUs := make([]float64, len(ingestMem))
	for i := range ingestMem { // same batch, with and without the archive behind it
		appendUs[i] = (ingest[i] - ingestMem[i]) * perSample
	}
	rep.set("archive.append_us_p50", median(appendUs), "archive-backed − memory-only Observe, per sample; "+n(spanIngestMem))
	rep.set("tsstore.write_prometheus_us_per_path", median(durs(spanScrape))*perSample, n(spanScrape))
	rep.set("tsstore.scrape_bytes", float64(f.scrapeBytes), fmt.Sprintf("last scrape, %d full rings", f.paths))
	rep.set("tsstore.federation_push_us_p50", median(durs(spanFedPush))*perSample/2, "per push, two agents; "+n(spanFedPush))
	rep.set("tsstore.federation_snapshot_ms_p50", median(durs(spanFedSnapshot))/1e3, n(spanFedSnapshot))
	rep.set("tsstore.fed_scrape_ms_p50", median(durs(spanFedScrape))/1e3, n(spanFedScrape))
	rep.set("archive.seal_ms_p50", median(durs(spanSeal))/1e3, n(spanSeal))
	open := durs(spanOpenStore)
	rep.set("archive.recovery_s", median(open)/1e6, n(spanOpenStore))
	var openTotal float64
	for _, d := range open {
		openTotal += d
	}
	rep.set("archive.open_store_records_per_s", float64(f.records)/(openTotal/1e6), fmt.Sprintf("%d records", f.records))
	rep.set("archive.verify_s", median(durs(spanVerify))/1e6, n(spanVerify))
	rep.set("archive.bytes_per_record", float64(f.archiveSize)/float64(f.records), fmt.Sprintf("%d bytes on disk", f.archiveSize))

	sync, err := syncAppendProbe(filepath.Join(f.outDir, fmt.Sprintf("archive-%d-sync", os.Getpid())))
	if err != nil {
		rep.Problems = append(rep.Problems, "sync append probe: "+err.Error())
		return
	}
	rep.set("archive.append_sync_us_p50", median(sync), fmt.Sprintf("n=%d; depends on the host's disk", len(sync)))
}

// syncAppendProbe times single Observe calls into an archive that
// fsyncs every append, in µs.
func syncAppendProbe(dir string) ([]float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, _, _, err := archive.OpenStore(dir, archive.Options{Sync: true}, storeConfig)
	if err != nil {
		return nil, err
	}
	out := make([]float64, storeSyncProbe)
	s := pathload.Sample{Path: "path-sync", Result: pathload.Result{Lo: 4e6, Hi: 5e6, Elapsed: 4 * time.Second, Bits: 2e6}}
	for i := range out {
		s.Round = i
		t := time.Now()
		st.Observe(s)
		out[i] = float64(time.Since(t)) / 1e3
	}
	if n, last := st.BackendErrs(); n != 0 {
		st.Close()
		return nil, fmt.Errorf("%d backend errors, last: %v", n, last)
	}
	return out, st.Close()
}
