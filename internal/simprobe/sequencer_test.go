package simprobe

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/schedule"

	pathload "repro"
)

// waitWithWatchdog waits for the fleet's goroutines and fails the test
// rather than hanging if the rotation stalls.
func waitWithWatchdog(t *testing.T, fleet *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fleet.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sequencer stalled")
	}
}

// TestSequencerOverlapsStreams is the point of the sequencer: two
// probers' streams must coexist on the shared link in virtual time —
// packets of both in flight together — which serializing whole streams
// behind a lock could never produce.
func TestSequencerOverlapsStreams(t *testing.T) {
	sim := netsim.NewSimulator()
	core := netsim.NewLink(sim, "core", 10_000_000, 5*netsim.Millisecond, 0)
	seq := NewSequencer(sim)

	// Record the wire size of every packet the core link serves, in
	// service order. The two probers use distinct packet sizes, so the
	// transmit log shows whether their streams interleaved.
	var sizes []int
	core.OnTransmit(func(pkt *netsim.Packet, _ netsim.Time) { sizes = append(sizes, pkt.Size) })

	pa := seq.NewProber([]*netsim.Link{core}, 10*netsim.Millisecond)
	pb := seq.NewProber([]*netsim.Link{core}, 10*netsim.Millisecond)

	var wg sync.WaitGroup
	for _, pr := range []struct {
		p *Prober
		l int
	}{{pa, 400}, {pb, 600}} {
		pr := pr
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pr.p.Retire()
			res, err := pr.p.SendStream(pathload.StreamSpec{Rate: 3e6, K: 30, L: pr.l, T: time.Millisecond})
			if err != nil {
				t.Errorf("L=%d: %v", pr.l, err)
				return
			}
			if len(res.OWDs) != 30 {
				t.Errorf("L=%d: delivered %d/30 packets", pr.l, len(res.OWDs))
			}
		}()
	}
	waitWithWatchdog(t, &wg)

	if len(sizes) != 60 {
		t.Fatalf("core served %d packets, want 60", len(sizes))
	}
	// Overlap means the size sequence alternates somewhere: a 600 after
	// a 400 before the 400s are done, etc. Count switches between the
	// two sizes; fully serialized streams would switch exactly once.
	switches := 0
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[i-1] {
			switches++
		}
	}
	if switches < 10 {
		t.Fatalf("streams barely interleaved: %d size switches in %v", switches, sizes)
	}
}

// seqTranscript runs a three-prober contended fleet and returns a
// canonical transcript of every stream's OWDs.
func seqTranscript(t *testing.T) string {
	t.Helper()
	sim := netsim.NewSimulator()
	core := netsim.NewLink(sim, "core", 10_000_000, 2*netsim.Millisecond, 0)
	seq := NewSequencer(sim)

	const probers = 3
	type rec struct {
		prober, stream int
		res            pathload.StreamResult
	}
	recs := make([][]rec, probers)
	// The roster is complete before the first prober is used.
	fleet := make([]*Prober, probers)
	for i := range fleet {
		access := netsim.NewLink(sim, fmt.Sprintf("access%d", i), 100_000_000, netsim.Millisecond, 0)
		fleet[i] = seq.NewProber([]*netsim.Link{access, core}, 10*netsim.Millisecond)
	}
	var wg sync.WaitGroup
	for i, p := range fleet {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Retire()
			for sidx := 0; sidx < 3; sidx++ {
				res, err := p.SendStream(pathload.StreamSpec{
					Rate: 2e6 + float64(i)*1e6, K: 20, L: 300 + 100*i, T: time.Millisecond, Index: sidx,
				})
				if err != nil {
					t.Errorf("prober %d stream %d: %v", i, sidx, err)
					return
				}
				recs[i] = append(recs[i], rec{prober: i, stream: sidx, res: res})
				if err := p.Idle(3 * time.Millisecond); err != nil {
					t.Errorf("prober %d idle: %v", i, err)
					return
				}
			}
		}()
	}
	waitWithWatchdog(t, &wg)

	var b strings.Builder
	for i, rr := range recs {
		for _, r := range rr {
			fmt.Fprintf(&b, "p%d s%d:", i, r.stream)
			for _, o := range r.res.OWDs {
				fmt.Fprintf(&b, " %d/%v", o.Seq, o.OWD)
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	return b.String()
}

// TestSequencerDeterministic: two independent runs of the same
// contended fleet must produce byte-identical OWD transcripts — the
// interleaving must be a function of the probers' logic, not of
// goroutine scheduling.
func TestSequencerDeterministic(t *testing.T) {
	a := seqTranscript(t)
	b := seqTranscript(t)
	if a != b {
		t.Fatalf("transcripts differ across runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "p2 s2:") {
		t.Fatalf("transcript incomplete:\n%s", a)
	}
}

// TestSequencerProberErrorRetires: a prober whose measurement errors
// out mid-fleet retires and the rotation keeps serving its siblings —
// no deadlock, siblings complete.
func TestSequencerProberErrorRetires(t *testing.T) {
	sim := netsim.NewSimulator()
	core := netsim.NewLink(sim, "core", 50_000_000, netsim.Millisecond, 0)
	seq := NewSequencer(sim)

	const probers = 4
	var wg sync.WaitGroup
	okStreams := make([]int, probers)
	fleet := make([]*Prober, probers)
	for i := range fleet {
		fleet[i] = seq.NewProber([]*netsim.Link{core}, 10*netsim.Millisecond)
	}
	for i, p := range fleet {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Retire()
			for sidx := 0; sidx < 2; sidx++ {
				spec := pathload.StreamSpec{Rate: 2e6, K: 15, L: 400, T: time.Millisecond, Index: sidx}
				if i == 1 {
					spec.K = 0 // invalid: errors out like a broken transport
				}
				res, err := p.SendStream(spec)
				if i == 1 {
					if err == nil {
						t.Error("invalid spec did not error")
					}
					return // bail mid-fleet; deferred Retire must free the rotation
				}
				if err != nil {
					t.Errorf("prober %d: %v", i, err)
					return
				}
				okStreams[i] += len(res.OWDs)
			}
		}()
	}
	waitWithWatchdog(t, &wg)

	for i, n := range okStreams {
		if i == 1 {
			continue
		}
		if n != 2*15 {
			t.Errorf("prober %d delivered %d packets, want 30", i, n)
		}
	}
}

// TestSequencerUniquePacketIDs: sequenced siblings draw from one ID
// space, and the deterministic rotation hands IDs out reproducibly.
func TestSequencerUniquePacketIDs(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 50_000_000, netsim.Millisecond, 0)
	seq := NewSequencer(sim)
	seen := map[uint64]bool{}
	link.OnTransmit(func(pkt *netsim.Packet, _ netsim.Time) {
		if seen[pkt.ID] {
			t.Errorf("duplicate packet ID %d", pkt.ID)
		}
		seen[pkt.ID] = true
	})

	fleet := make([]*Prober, 8)
	for i := range fleet {
		fleet[i] = seq.NewProber([]*netsim.Link{link}, 10*netsim.Millisecond)
	}
	var wg sync.WaitGroup
	for _, p := range fleet {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Retire()
			if _, err := p.SendStream(pathload.StreamSpec{Rate: 4e6, K: 20, L: 500, T: time.Millisecond}); err != nil {
				t.Error(err)
			}
		}()
	}
	waitWithWatchdog(t, &wg)
	if len(seen) != 8*20 {
		t.Fatalf("transmitted %d distinct packets, want %d", len(seen), 160)
	}
}

// mustPanic runs fn and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("recovered %v, want a panic containing %q", r, want)
		}
	}()
	fn()
}

// TestSequencerMisuse pins the lifecycle diagnostics: the roster and
// the round hook are final once any prober has parked, and a retired
// prober cannot be used again.
func TestSequencerMisuse(t *testing.T) {
	sim := netsim.NewSimulator()
	seq := NewSequencer(sim)
	link := netsim.NewLink(sim, "l", 1_000_000, 0, 0)
	p := seq.NewProber([]*netsim.Link{link}, 0)
	if err := p.Idle(time.Millisecond); err != nil { // the first park
		t.Fatal(err)
	}
	mustPanic(t, "NewProber after", func() { seq.NewProber([]*netsim.Link{link}, 0) })
	mustPanic(t, "OnRoundBoundary after", func() { seq.OnRoundBoundary(func(int) {}) })
	p.Retire()
	p.Retire() // idempotent
	mustPanic(t, "after Retire", func() { _ = p.Idle(time.Millisecond) })
	mustPanic(t, "empty route", func() { NewSequencer(sim).NewProber(nil, 0) })
}

// TestSequencerAdmissionStallPanics: an admission await has no deadline,
// so when every live session waits for admission and none is admissible
// there is nothing to advance the clock toward. The session that parked
// last — the one deciding — must fail loudly, on its own goroutine,
// instead of spinning the event loop.
func TestSequencerAdmissionStallPanics(t *testing.T) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "l", 1_000_000, 0, 0)
	seq := NewSequencer(sim)
	drv := NewSequencedDriver(seq)
	drv.Register("p", seq.NewProber([]*netsim.Link{link}, 0))

	adm := schedule.NewWorkers(1)
	if _, ok := adm.TryAcquire("held"); !ok { // never released
		t.Fatal("could not fill the pool")
	}
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		drv.Acquire("p", adm, nil)
	}()
	select {
	case r := <-recovered:
		if r == nil || !strings.Contains(fmt.Sprint(r), "sequencer stalled") {
			t.Fatalf("Acquire as an inadmissible sole waiter: recovered %v, want the stall panic", r)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("inadmissible sole waiter neither admitted nor panicked")
	}
}

// TestGapSlack: the driver measures how far each gap anchor lay past
// the barrier release that preceded it. Two sessions end their round at
// 1 s and 5 s, so the barrier releases at 5 s: with 10 s gaps the early
// path's anchor (11 s) is 6 s ahead and it starts there; with 2 s gaps
// its anchor (3 s) is 2 s in the past and it starts at the release — the
// case a solo-replay control has to refuse.
func TestGapSlack(t *testing.T) {
	for _, c := range []struct{ gap, slack, start time.Duration }{
		{10 * time.Second, 6 * time.Second, 11 * time.Second},
		{2 * time.Second, -2 * time.Second, 5 * time.Second},
	} {
		sim := netsim.NewSimulator()
		link := netsim.NewLink(sim, "l", 1_000_000, 0, 0)
		seq := NewSequencer(sim)
		drv := NewSequencedDriver(seq)
		rounds := map[string]time.Duration{"early": time.Second, "late": 5 * time.Second}
		for path := range rounds {
			drv.Register(path, seq.NewProber([]*netsim.Link{link}, 0))
		}
		if _, ok := drv.GapSlack(); ok {
			t.Fatal("GapSlack reported a margin before any gap was spent")
		}
		var started netsim.Time
		var wg sync.WaitGroup
		for path, round := range rounds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer drv.Retire(path)
				p := drv.prober(path)
				if err := p.Idle(round); err != nil {
					t.Error(err)
				}
				drv.RoundEnd(path, 0)
				if err := drv.Gap(path, p, c.gap); err != nil {
					t.Error(err)
				}
				if path == "early" {
					started = sim.Now()
				}
			}()
		}
		wg.Wait()
		if slack, ok := drv.GapSlack(); !ok || slack != c.slack {
			t.Errorf("gap %v: GapSlack = %v, %v; want %v", c.gap, slack, ok, c.slack)
		}
		if started.Duration() != c.start {
			t.Errorf("gap %v: the early path's next round started at %v, want %v", c.gap, started, c.start)
		}
	}
}

// TestStragglersDoNotWakeNextAwait: a stream that times out leaves
// packets in flight, and they still reach its sink after SendStream has
// returned. They belong to nobody: in particular the K-th of them must
// not end the prober's next await early. Stream 1 floods a slow link
// and gives up with most of its packets still queued; stream 2 queues
// behind them and must come back with exactly its own K arrivals, at
// the instant the last of them leaves the link.
func TestStragglersDoNotWakeNextAwait(t *testing.T) {
	const (
		k    = 10
		l    = 1000 // 8 ms on the wire at 1 Mb/s
		prop = 5 * netsim.Millisecond
		tx   = 8 * netsim.Millisecond
	)
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "slow", 1_000_000, prop, 0)
	p := New(sim, []*netsim.Link{link}, 0)
	spec := pathload.StreamSpec{Rate: 8e6, K: k, L: l, T: time.Millisecond}

	// Sent over 10 ms, drained over 80: the wait ends 5 ms after the
	// first packet could have crossed, with two delivered.
	p.LossTimeout = 5 * netsim.Millisecond
	first, err := p.SendStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	if gaveUp := k*netsim.Millisecond + prop + tx + p.LossTimeout; sim.Now() != gaveUp {
		t.Fatalf("stream 1 returned at %v, want its deadline %v", sim.Now(), gaveUp)
	}
	if n := len(first.OWDs); n == 0 || n >= k/2 {
		t.Fatalf("stream 1 collected %d/%d packets, want a few: the rest must still be in flight", n, k)
	}

	// Stream 1's tenth packet arrives while stream 2 waits.
	p.LossTimeout = netsim.Second
	spec.Index = 1
	second, err := p.SendStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.OWDs) != k {
		t.Fatalf("stream 2 collected %d packets, want its own %d", len(second.OWDs), k)
	}
	for i, o := range second.OWDs {
		if o.Seq != i {
			t.Fatalf("stream 2 arrival %d has seq %d", i, o.Seq)
		}
	}
	// The link never went idle: the twentieth packet leaves at 20·tx.
	if want := 2*k*tx + prop; sim.Now() != want {
		t.Fatalf("stream 2 returned at %v, want %v (its K-th arrival)", sim.Now(), want)
	}
}
