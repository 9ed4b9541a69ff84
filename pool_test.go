package pathload_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fluid"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// TestRunConcurrentResultsIndependent: Runs that share the scratch pool
// from eight goroutines, each on its own simulator, return exactly what
// the same runs return one after another, and every Result owns its
// traces: changing one Result's fleets or streams changes no other.
func TestRunConcurrentResultsIndependent(t *testing.T) {
	const workers, rounds = 8, 2
	measure := func(seed int64) []pathload.Result {
		net := experiments.Topology{Seed: seed}.Build()
		net.Warmup(netsim.Second)
		p := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
		out := make([]pathload.Result, rounds)
		for i := range out {
			res, err := pathload.Run(p, pathload.Config{})
			if err != nil {
				t.Errorf("seed %d round %d: %v", seed, i, err)
			}
			out[i] = res
		}
		return out
	}
	want := make([][]pathload.Result, workers)
	for w := range want {
		want[w] = measure(int64(w + 1))
	}
	got := make([][]pathload.Result, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = measure(int64(w + 1))
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var all []*pathload.Result
	for w := range got {
		if !reflect.DeepEqual(got[w], want[w]) {
			t.Fatalf("seed %d: concurrent results differ from sequential ones:\n%+v\nwant\n%+v", w+1, got[w], want[w])
		}
		for i := range got[w] {
			all = append(all, &got[w][i])
		}
	}
	// Scribble over each Result in turn; every one not yet scribbled
	// over must still read as it was returned.
	flat := func(rs [][]pathload.Result) (out []pathload.Result) {
		for _, r := range rs {
			out = append(out, r...)
		}
		return out
	}
	wantFlat := flat(want)
	for i, r := range all {
		for f := range r.Fleets {
			r.Fleets[f].Rate = -1
			for s := range r.Fleets[f].Streams {
				r.Fleets[f].Streams[s] = pathload.StreamTrace{PCT: -1, PDT: -1, Loss: -1}
			}
			r.Fleets[f].Streams = append(r.Fleets[f].Streams, pathload.StreamTrace{Loss: -1})
		}
		for j := i + 1; j < len(all); j++ {
			if !reflect.DeepEqual(*all[j], wantFlat[j]) {
				t.Fatalf("changing result %d changed result %d", i, j)
			}
		}
	}
}

// TestRunErrorKeepsCompletedFleets: a prober that fails inside fleet k
// leaves Result.Fleets holding fleets 0..k−1 with their streams, as the
// same prober's unfailed run records them; the fleets' Streams do not
// share spare capacity, so appending to one cannot overwrite the next;
// and the failed run leaves the pooled scratch fit for the next run.
func TestRunErrorKeepsCompletedFleets(t *testing.T) {
	path := fluid.Path{{C: 10e6, A: 4e6}}
	cfg := pathload.Config{DisableInitProbe: true}
	full, err := pathload.Run(&fluidProber{path: path}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	if len(full.Fleets) <= k {
		t.Fatalf("the unfailed run took %d fleets; the test fails fleet %d", len(full.Fleets), k)
	}
	sent := 1 // fail on fleet k's second stream
	for _, f := range full.Fleets[:k] {
		sent += len(f.Streams)
	}
	res, err := pathload.Run(&fluidProber{path: path, failAfter: sent}, cfg)
	if err == nil {
		t.Fatal("a prober failing in fleet 2 did not fail the run")
	}
	if !reflect.DeepEqual(res.Fleets, full.Fleets[:k]) {
		t.Fatalf("failed run kept fleets\n%+v\nwant the unfailed run's first %d\n%+v", res.Fleets, k, full.Fleets[:k])
	}
	next := res.Fleets[1].Streams[0]
	res.Fleets[0].Streams = append(res.Fleets[0].Streams, pathload.StreamTrace{PCT: -1, PDT: -1, Loss: -1})
	if res.Fleets[1].Streams[0] != next {
		t.Fatal("appending to Fleets[0].Streams overwrote Fleets[1].Streams[0]")
	}
	again, err := pathload.Run(&fluidProber{path: path}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, full) {
		t.Fatalf("the run after a failed one returned\n%+v\nwant\n%+v", again, full)
	}
}
