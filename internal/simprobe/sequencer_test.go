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

// driveWithWatchdog runs seq.Drive and fails the test rather than
// hanging if the rotation stalls.
func driveWithWatchdog(t *testing.T, seq *Sequencer) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		seq.Drive()
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
	driveWithWatchdog(t, seq)
	wg.Wait()

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
	var wg sync.WaitGroup
	for i := 0; i < probers; i++ {
		i := i
		access := netsim.NewLink(sim, fmt.Sprintf("access%d", i), 100_000_000, netsim.Millisecond, 0)
		p := seq.NewProber([]*netsim.Link{access, core}, 10*netsim.Millisecond)
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
	driveWithWatchdog(t, seq)
	wg.Wait()

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
	for i := 0; i < probers; i++ {
		i := i
		p := seq.NewProber([]*netsim.Link{core}, 10*netsim.Millisecond)
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
	driveWithWatchdog(t, seq)
	wg.Wait()

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

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		p := seq.NewProber([]*netsim.Link{link}, 10*netsim.Millisecond)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Retire()
			if _, err := p.SendStream(pathload.StreamSpec{Rate: 4e6, K: 20, L: 500, T: time.Millisecond}); err != nil {
				t.Error(err)
			}
		}()
	}
	driveWithWatchdog(t, seq)
	wg.Wait()
	if len(seen) != 8*20 {
		t.Fatalf("transmitted %d distinct packets, want %d", len(seen), 160)
	}
}

// TestSequencerMisuse pins the lifecycle diagnostics.
func TestSequencerMisuse(t *testing.T) {
	sim := netsim.NewSimulator()
	seq := NewSequencer(sim)
	link := netsim.NewLink(sim, "l", 1_000_000, 0, 0)
	p := seq.NewProber([]*netsim.Link{link}, 0)
	p.Retire()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("section after Retire did not panic")
			}
		}()
		_ = p.Idle(time.Millisecond)
	}()
	seq.Drive() // all retired: returns immediately
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewProber after Drive did not panic")
			}
		}()
		seq.NewProber([]*netsim.Link{link}, 0)
	}()
}

// TestSequencerAdmissionStallPanics: an admission await has no deadline,
// so when every live session waits for admission and none is admissible
// there is nothing to advance the clock toward. Drive must fail loudly
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
	// The session stays parked for good once Drive has panicked; the
	// goroutine is abandoned with the test.
	go drv.Acquire("p", adm, nil)

	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sequencer stalled") {
			t.Fatalf("Drive with an inadmissible sole waiter: recovered %v, want the stall panic", r)
		}
	}()
	seq.Drive()
}
