package archive

import (
	"testing"
	"time"

	pathload "repro"
	"repro/internal/tsstore"
)

// rampProber is an analytic prober: streams above avail ramp, streams
// below arrive flat (the agent_test stubProber pattern).
type rampProber struct{ avail float64 }

func (f *rampProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	res := pathload.StreamResult{Sent: spec.K}
	for i := 0; i < spec.K; i++ {
		owd := 5 * time.Millisecond
		if spec.EffectiveRate() > f.avail {
			owd += time.Duration(i) * 100 * time.Microsecond
		}
		res.OWDs = append(res.OWDs, pathload.OWDSample{Seq: i, OWD: owd})
	}
	return res, nil
}
func (f *rampProber) Idle(time.Duration) error { return nil }
func (f *rampProber) RTT() time.Duration       { return time.Millisecond }

// runFleet runs one monitor incarnation over the archived store:
// every path measured `rounds` times, then a hard stop with NO
// archive Close — the files must carry the state, as after a kill.
// The store is also where each session resumes (Store.Resume).
func runFleet(t *testing.T, st *tsstore.Store, paths []string, rounds int) {
	t.Helper()
	mon, err := pathload.NewMonitor(pathload.MonitorConfig{
		Rounds:   rounds,
		Interval: time.Millisecond,
		Store:    st,
		Config: pathload.Config{
			PacketsPerStream: 8,
			StreamsPerFleet:  3,
			DisableInitProbe: true,
		},
	})
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	for i, p := range paths {
		if err := mon.AddPath(p, &rampProber{avail: 5e6 * float64(i+1)}); err != nil {
			t.Fatalf("AddPath(%s): %v", p, err)
		}
	}
	if err := mon.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for range mon.Results() {
	}
}

// TestMonitorRestartRecovery is the restart-recovery acceptance test:
// a monitor writes through to an archive, dies mid-fleet (no Close, no
// Seal — the WAL tail alone carries the newest rounds), restarts over
// the recovered store, and every path's series continues with strictly
// increasing rounds and a monotone path-local clock. No rewind to
// round 0, no duplicated rounds, no invented points. CI runs this
// under -race -count=2.
func TestMonitorRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	paths := []string{"path-00", "path-01", "path-02"}
	const perRun = 4

	// Incarnation 1: fresh archive, 4 rounds per path, killed (the
	// archive is abandoned mid-flight, like a SIGKILL after the last
	// WAL write hit the page cache).
	st1, be1, rep1 := openStoreT(t, dir, Options{}, tsstore.Config{})
	if rep1.Segments != 0 {
		t.Fatalf("fresh dir has segments: %+v", rep1)
	}
	runFleet(t, st1, paths, perRun)
	for _, p := range paths {
		if last, ok := st1.Last(p); !ok || last.Round != perRun-1 {
			t.Fatalf("incarnation 1: %s last round %v %v", p, last.Round, ok)
		}
	}
	_ = be1 // deliberately not closed: simulated kill

	// Incarnation 2: recover, run 4 more rounds, verify continuity,
	// then seal so incarnation 3 exercises the checkpoint path too.
	st2, be2, rep2 := openStoreT(t, dir, Options{}, tsstore.Config{})
	if rep2.TailRecords != perRun*len(paths) {
		t.Fatalf("incarnation 2 report: %+v", rep2)
	}
	runFleet(t, st2, paths, perRun)
	if err := be2.Archive().Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	_ = be2 // killed again

	// Incarnation 3: checkpoint + empty tail recovery, final rounds.
	st3, be3, rep3 := openStoreT(t, dir, Options{}, tsstore.Config{})
	defer be3.Close()
	if rep3.Segments != 1 || rep3.CheckpointCorrupt {
		t.Fatalf("incarnation 3 report: %+v", rep3)
	}
	runFleet(t, st3, paths, perRun)

	for _, p := range paths {
		pts := st3.Snapshot(p)
		if len(pts) != 3*perRun {
			t.Fatalf("%s: %d points, want %d", p, len(pts), 3*perRun)
		}
		for i, pt := range pts {
			if pt.Round != i {
				t.Fatalf("%s: point %d has round %d — series rewound or skipped", p, i, pt.Round)
			}
			if i > 0 && pt.At <= pts[i-1].At {
				t.Fatalf("%s: path clock not monotone at round %d: %v then %v", p, i, pts[i-1].At, pt.At)
			}
		}
		total, _ := st3.Totals(p)
		if total != uint64(3*perRun) {
			t.Fatalf("%s: total %d, want %d", p, total, 3*perRun)
		}
	}
	// And the archive the three incarnations left behind verifies.
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("post-restart archive fails verify: %v", rep.Problems)
	}
}
