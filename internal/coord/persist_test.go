package coord

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	pathload "repro"
	"repro/internal/archive"
	"repro/internal/tsstore"
)

// TestLeaseSnapshotCodec pins the durable lease-snapshot encoding.
func TestLeaseSnapshotCodec(t *testing.T) {
	cases := []LeaseSnapshot{
		{},
		{Clock: 5 * time.Second, Agents: []string{"a1", "a2"}},
		{
			Clock:  time.Minute,
			Agents: []string{"a1"},
			Owners: []OwnerGroup{
				{Paths: []string{"p00"}, Owner: "a1"},
				{Paths: []string{"p01", "p02"}, Owner: "a1"},
			},
		},
	}
	for i, s := range cases {
		got, err := unmarshalLeaseSnapshot(marshalLeaseSnapshot(s))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("case %d: roundtrip %+v != %+v", i, got, s)
		}
	}
	if _, err := unmarshalLeaseSnapshot([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated snapshot decoded")
	}
}

// TestRestoreLeases: a snapshot taken from one State reinstates into a
// fresh State with the same configuration — same owners, fresh TTLs,
// and a subsequent Tick is a no-op (no steal storm). Entries that no
// longer fit the configuration are dropped with an explicit line.
func TestRestoreLeases(t *testing.T) {
	cfg := Config{
		Paths:     []string{"p00", "p01", "p02"},
		Conflicts: map[string][]string{"p01": {"p02"}},
		TTL:       10 * time.Second,
	}
	st1, err := NewState(cfg)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	st1.Register("a1", 0)
	st1.Register("a2", 0)
	st1.Tick(time.Second)
	snap := st1.LeaseSnapshot(2 * time.Second)
	if len(snap.Owners) != 2 || len(snap.Agents) != 2 {
		t.Fatalf("snapshot %+v", snap)
	}

	st2, err := NewState(cfg)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	lines := st2.RestoreLeases(snap, 100*time.Second)
	for _, l := range lines {
		if strings.Contains(l, "drop") {
			t.Fatalf("clean restore dropped state: %q", l)
		}
	}
	for _, p := range cfg.Paths {
		if st2.Owner(p) != st1.Owner(p) {
			t.Fatalf("%s owner %q after restore, want %q", p, st2.Owner(p), st1.Owner(p))
		}
	}
	// Restored agents carry a fresh TTL: the next tick neither expires
	// nor rebalances anything.
	if post := st2.Tick(101 * time.Second); len(post) != 0 {
		t.Fatalf("tick after restore churned leases: %v", post)
	}

	// A snapshot whose group shape no longer exists drops explicitly.
	st3, _ := NewState(Config{Paths: []string{"p00", "p01", "p02"}})
	lines = st3.RestoreLeases(snap, 0)
	var dropped bool
	for _, l := range lines {
		dropped = dropped || strings.Contains(l, "no matching conflict group")
	}
	if !dropped {
		t.Fatalf("group-shape mismatch not reported: %v", lines)
	}
	if st3.Owner("p00") == "" {
		t.Fatal("still-matching singleton group should restore")
	}

	// An owner missing from the agent list drops explicitly too.
	st4, _ := NewState(cfg)
	orphan := snap
	orphan.Agents = []string{"a1"}
	lines = st4.RestoreLeases(orphan, 0)
	dropped = false
	for _, l := range lines {
		dropped = dropped || strings.Contains(l, "owner not restored")
	}
	if st1.Owner("p00") != st1.Owner("p01") && !dropped {
		t.Fatalf("orphaned owner not reported: %v", lines)
	}
}

// mkContribution fabricates a contribution with a digest.
func mkContribution(seq, total uint64) tsstore.Contribution {
	st := tsstore.New(tsstore.Config{})
	for i := uint64(0); i < total; i++ {
		st.Observe(pathload.Sample{
			Path:  "p",
			Round: int(i),
			At:    time.Duration(i) * time.Second,
			Result: pathload.Result{
				Lo: 1e6 * float64(i+1), Hi: 2e6 * float64(i+1),
				Bits: 1000, Elapsed: time.Second,
			},
		})
	}
	return tsstore.Contribution{
		Seq:    seq,
		Total:  total,
		Errors: 0,
		Points: st.Snapshot("p"),
		Digest: st.DigestSnapshot("p"),
	}
}

// TestLogRoundtrip drives the archive-backed Persister through its
// full life cycle: save, reopen from the WAL tail, seal, reopen from
// the checkpoint, and a corrupt checkpoint falling back to a full
// sealed replay — every route recovering the same latest-per-key
// state.
func TestLogRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l1, rep, err := OpenLog(dir, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if rep.Segments != 0 || rep.TailRecords != 0 {
		t.Fatalf("fresh log report %+v", rep)
	}
	snapA := LeaseSnapshot{Clock: time.Second, Agents: []string{"a1"},
		Owners: []OwnerGroup{{Paths: []string{"p00"}, Owner: "a1"}}}
	snapB := LeaseSnapshot{Clock: 2 * time.Second, Agents: []string{"a1", "a2"},
		Owners: []OwnerGroup{{Paths: []string{"p00"}, Owner: "a2"}}}
	if err := l1.SaveLeases(snapA); err != nil {
		t.Fatal(err)
	}
	if err := l1.SaveContribution("a1", "p00", mkContribution(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l1.SaveContribution("a1", "p00", mkContribution(2, 5)); err != nil {
		t.Fatal(err)
	}
	if err := l1.SaveContribution("a2", "p01", mkContribution(7, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l1.SaveLeases(snapB); err != nil {
		t.Fatal(err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(l *Log, what string) {
		t.Helper()
		rs, problems := l.Restore()
		if len(problems) != 0 {
			t.Fatalf("%s: problems %v", what, problems)
		}
		if !rs.HaveLeases || !reflect.DeepEqual(rs.Leases, snapB) {
			t.Fatalf("%s: leases %+v", what, rs.Leases)
		}
		if len(rs.Contributions) != 2 {
			t.Fatalf("%s: %d contributions", what, len(rs.Contributions))
		}
		c0 := rs.Contributions[0]
		if c0.Agent != "a1" || c0.Path != "p00" || c0.C.Seq != 2 || c0.C.Total != 5 {
			t.Fatalf("%s: latest-per-key lost: %+v", what, c0)
		}
		if got := c0.C.Digest.Quantile(0.5); got <= 0 {
			t.Fatalf("%s: digest did not survive: median %v", what, got)
		}
		c1 := rs.Contributions[1]
		if c1.Agent != "a2" || c1.Path != "p01" || c1.C.Seq != 7 {
			t.Fatalf("%s: second key: %+v", what, c1)
		}
	}

	// Route 1: WAL tail replay.
	l2, rep2, err := OpenLog(dir, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog(2): %v", err)
	}
	if rep2.TailRecords != 5 || rep2.Segments != 0 {
		t.Fatalf("tail-replay report %+v", rep2)
	}
	check(l2, "tail replay")
	if err := l2.Archive().Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	l2.Close()

	// Route 2: checkpoint seed, sealed records skipped.
	l3, rep3, err := OpenLog(dir, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog(3): %v", err)
	}
	if rep3.Segments != 1 || rep3.SealedRecords != 0 || rep3.CheckpointCorrupt {
		t.Fatalf("checkpoint-seed report %+v", rep3)
	}
	check(l3, "checkpoint seed")
	l3.Close()

	// Route 3: a foreign (undecodable) checkpoint forces — and is
	// explicitly reported as — a full sealed replay.
	dir2 := t.TempDir()
	a, _, err := archive.Open(dir2, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.SetHooks(nil, func() []byte { return []byte("junk") })
	lw := &Log{contribs: map[string][]byte{}}
	lw.a = a
	if err := lw.SaveLeases(snapB); err != nil {
		t.Fatal(err)
	}
	if err := lw.SaveContribution("a1", "p00", mkContribution(2, 5)); err != nil {
		t.Fatal(err)
	}
	if err := lw.SaveContribution("a2", "p01", mkContribution(7, 3)); err != nil {
		t.Fatal(err)
	}
	if err := a.Seal(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	l4, rep4, err := OpenLog(dir2, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog(4): %v", err)
	}
	if !rep4.CheckpointCorrupt || rep4.SealedRecords != 3 {
		t.Fatalf("corrupt-checkpoint report %+v", rep4)
	}
	check(l4, "sealed replay fallback")
	l4.Close()
}

// TestCoordinatorRestartRecovery is the coord-layer acceptance test: a
// coordinator persisting through an archive dies and is rebuilt from
// it while its agents keep running. After the restart the agents
// re-attach to their prior conflict groups (no steal, no expiry), and
// the federated history is continuous — identical to the pre-restart
// snapshot until the agents push post-restart samples on top.
func TestCoordinatorRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	coordCfg := Config{
		Paths: []string{"p00", "p01"},
		TTL:   2 * time.Second,
		Epoch: 50 * time.Millisecond,
	}

	log1, _, err := OpenLog(dir, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	srv1, err := NewServer(ServerConfig{Coord: coordCfg, AutoTick: true, Persist: log1})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv1.Serve(ln1)

	// Agents dial through an indirection so they can follow the
	// coordinator onto its post-restart listener.
	var addrMu sync.Mutex
	addr := ln1.Addr().String()
	dial := func() (net.Conn, error) {
		addrMu.Lock()
		a := addr
		addrMu.Unlock()
		return net.Dial("tcp", a)
	}
	newAgent := func(name string) *Agent {
		a, err := NewAgent(AgentConfig{
			Dial: dial,
			Name: name,
			Provider: func(string) (pathload.ProberFactory, error) {
				return func() (pathload.Prober, error) { return &stubProber{avail: 5e6}, nil }, nil
			},
			Heartbeat:   40 * time.Millisecond,
			PushEvery:   50 * time.Millisecond,
			DialBackoff: 20 * time.Millisecond,
			Monitor: pathload.MonitorConfig{
				Interval: 5 * time.Millisecond,
				Config:   pathload.Config{PacketsPerStream: 8, StreamsPerFleet: 3, DisableInitProbe: true},
			},
		})
		if err != nil {
			t.Fatalf("NewAgent(%s): %v", name, err)
		}
		return a
	}
	a1, a2 := newAgent("a1"), newAgent("a2")
	go a1.Run()
	go a2.Run()
	defer a1.Stop()
	defer a2.Stop()

	waitFor(t, "split ownership with federated pushes", func() bool {
		o0, o1 := srv1.Owner("p00"), srv1.Owner("p01")
		if o0 == "" || o1 == "" || o0 == o1 {
			return false
		}
		c0, ok0 := srv1.Federation().Contribution(o0, "p00")
		c1, ok1 := srv1.Federation().Contribution(o1, "p01")
		return ok0 && ok1 && c0.Total >= 2 && c1.Total >= 2
	})
	if n, perr := srv1.PersistErrs(); n != 0 {
		t.Fatalf("persist errors before restart: %d (%v)", n, perr)
	}

	// Kill the coordinator. Close drains every handler first, so the
	// archive holds exactly what the federation held.
	srv1.Close()
	ln1.Close()
	owners := map[string]string{"p00": srv1.Owner("p00"), "p01": srv1.Owner("p01")}
	before := srv1.Federation().Snapshot()
	log1.Close()

	// Rebuild from the archive.
	log2, _, err := OpenLog(dir, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog(2): %v", err)
	}
	defer log2.Close()
	rs, problems := log2.Restore()
	if len(problems) != 0 {
		t.Fatalf("restore problems: %v", problems)
	}
	if !rs.HaveLeases {
		t.Fatal("no lease snapshot recovered")
	}
	srv2, err := NewServer(ServerConfig{Coord: coordCfg, AutoTick: true, Persist: log2, Restore: &rs})
	if err != nil {
		t.Fatalf("NewServer(2): %v", err)
	}
	defer srv2.Close()

	// Before any agent reconnects: leases and federated history are
	// back, byte-continuous with the pre-restart state.
	for p, o := range owners {
		if got := srv2.Owner(p); got != o {
			t.Fatalf("%s owner %q after restore, want %q", p, got, o)
		}
	}
	restored := srv2.Federation().Snapshot()
	for p := range owners {
		bt, be := before.Totals(p)
		rt, re := restored.Totals(p)
		if bt != rt || be != re {
			t.Fatalf("%s: restored totals (%d, %d) != pre-restart (%d, %d)", p, rt, re, bt, be)
		}
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen(2): %v", err)
	}
	go srv2.Serve(ln2)
	addrMu.Lock()
	addr = ln2.Addr().String()
	addrMu.Unlock()

	// Agents re-attach and history grows past the restored totals.
	waitFor(t, "post-restart pushes on both paths", func() bool {
		snap := srv2.Federation().Snapshot()
		for p := range owners {
			bt, _ := before.Totals(p)
			nt, _ := snap.Totals(p)
			if nt <= bt {
				return false
			}
		}
		return true
	})

	// Re-attachment must not have churned the assignment: no steals, no
	// expiries — the restored leases simply resumed.
	for _, line := range srv2.Transcript() {
		if strings.Contains(line, "steal") || strings.Contains(line, "expire") {
			t.Fatalf("restart churned leases: %q", line)
		}
	}
	for p, o := range owners {
		if got := srv2.Owner(p); got != o {
			t.Fatalf("%s owner %q after re-attach, want %q", p, got, o)
		}
	}
	if n, perr := srv2.PersistErrs(); n != 0 {
		t.Fatalf("persist errors after restart: %d (%v)", n, perr)
	}

	// The archive the two coordinator lives produced verifies clean.
	a1.Stop()
	a2.Stop()
	srv2.Close()
	rep, err := archive.Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("coordinator archive fails verify: %v", rep.Problems)
	}
}
