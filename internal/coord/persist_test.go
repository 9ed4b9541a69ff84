package coord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	pathload "repro"
	"repro/internal/archive"
	"repro/internal/tsstore"
	"repro/internal/wire"
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

// TestLogRoundtrip drives the coordinator's Log through its full life
// cycle: save, reopen from the WAL tail, seal, reopen from
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
	if err := l1.saveLeases(snapA); err != nil {
		t.Fatal(err)
	}
	if err := l1.savePush("a1", "p00", marshalPush("p00", mkContribution(1, 2))); err != nil {
		t.Fatal(err)
	}
	if err := l1.savePush("a1", "p00", marshalPush("p00", mkContribution(2, 5))); err != nil {
		t.Fatal(err)
	}
	if err := l1.savePush("a2", "p01", marshalPush("p01", mkContribution(7, 3))); err != nil {
		t.Fatal(err)
	}
	if err := l1.saveLeases(snapB); err != nil {
		t.Fatal(err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(l *Log, what string) {
		t.Helper()
		fed := tsstore.NewFederation(tsstore.Config{})
		leases, restored, dropped := l.restore(fed)
		if len(dropped) != 0 {
			t.Fatalf("%s: problems %v", what, dropped)
		}
		if leases == nil || !reflect.DeepEqual(*leases, snapB) {
			t.Fatalf("%s: leases %+v", what, leases)
		}
		if restored != 2 || !reflect.DeepEqual(fed.Paths(), []string{"p00", "p01"}) {
			t.Fatalf("%s: %d contributions on paths %v", what, restored, fed.Paths())
		}
		c0, ok := fed.Contribution("a1", "p00")
		if !ok || c0.Seq != 2 || c0.Total != 5 {
			t.Fatalf("%s: latest-per-key lost: %+v", what, c0)
		}
		if got := c0.Digest.Quantile(0.5); got <= 0 {
			t.Fatalf("%s: digest did not survive: median %v", what, got)
		}
		c1, ok := fed.Contribution("a2", "p01")
		if !ok || c1.Seq != 7 {
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
	// explicitly reported as — a full sealed replay, which skips a
	// record of a kind the log does not own and does not count it as
	// sealed; the line pathload-coord prints names both.
	dir2 := t.TempDir()
	lw := &Log{contribs: map[string][]byte{}}
	a, _, err := archive.Recover(dir2, archive.Options{}, archive.Consumer{
		Magic: coordCkptMagic, Version: coordCkptVersion,
		Seed: lw.decodeCheckpoint, Apply: lw.apply, Checkpoint: func(b []byte) []byte { return append(b, "junk"...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	lw.a = a
	if err := lw.saveLeases(snapB); err != nil {
		t.Fatal(err)
	}
	if err := lw.savePush("a1", "p00", marshalPush("p00", mkContribution(2, 5))); err != nil {
		t.Fatal(err)
	}
	if err := lw.savePush("a2", "p01", marshalPush("p01", mkContribution(7, 3))); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(archive.Record{Kind: archive.KindPointCompact, Key: "p00", Data: []byte{1}}); err != nil {
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
	if !rep4.CheckpointCorrupt || rep4.SealedRecords != 3 || rep4.ForeignRecords != 1 {
		t.Fatalf("corrupt-checkpoint report %+v", rep4)
	}
	line := rep4.String()
	for _, want := range []string{", 3 sealed records", ", 1 foreign records skipped", ", checkpoint corrupt"} {
		if !strings.Contains(line, want) {
			t.Errorf("report line %q lacks %q", line, want)
		}
	}
	check(l4, "sealed replay fallback")
	l4.Close()
}

// TestOpenLogCountsForeignSealedRecords: OpenLog and archive.OpenStore
// report the same foreign records for one directory. An intact
// coordinator checkpoint spares OpenLog replaying its own sealed
// records, not counting the ones it does not own.
func TestOpenLogCountsForeignSealedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenLog(dir, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if err := l.saveLeases(LeaseSnapshot{Clock: time.Second, Agents: []string{"a1"}}); err != nil {
		t.Fatal(err)
	}
	point := tsstore.Point{Round: 1, Lo: 1e6, Hi: 2e6}.AppendCompact(nil)
	if err := l.Archive().Append(archive.Record{Kind: archive.KindPointCompact, Key: "p00", Data: point}); err != nil {
		t.Fatal(err)
	}
	if err := l.Archive().Seal(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l, logRep, err := OpenLog(dir, archive.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	l.Close()
	if logRep.CheckpointCorrupt || logRep.SealedRecords != 0 {
		t.Fatalf("the coordinator checkpoint did not seed the log: %+v", logRep)
	}
	st, _, storeRep, err := archive.OpenStore(dir, archive.Options{}, tsstore.Config{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	st.Close()
	if logRep.ForeignRecords != 1 || storeRep.ForeignRecords != 1 {
		t.Fatalf("foreign records: OpenLog %d, OpenStore %d; want 1 each", logRep.ForeignRecords, storeRep.ForeignRecords)
	}
}

// TestOpenLogRefusesPreviousGeneration: a log written by protocol
// version 2 — its pushes recorded under kind 0x20 with fixed-width
// points, its checkpoint CLCK version 1 — restores no contribution.
// OpenLog reports the checkpoint corrupt and the records foreign, sealed
// and in the WAL, and decodes neither.
func TestOpenLogRefusesPreviousGeneration(t *testing.T) {
	// A version 2 push payload of one point: Seq, path, Total, Errors,
	// the point count, the point's Round, At, Span as u64, Lo, Hi, Bits
	// as float64 bits and an empty u16-prefixed error text, then an
	// empty digest.
	push := binary.BigEndian.AppendUint64(nil, 1)
	push = wire.AppendString(push, "p00")
	push = binary.BigEndian.AppendUint64(push, 1)
	push = binary.BigEndian.AppendUint64(push, 0)
	push = binary.BigEndian.AppendUint32(push, 1)
	for _, v := range []uint64{1, uint64(time.Second), uint64(time.Second), math.Float64bits(1e6), math.Float64bits(2e6), math.Float64bits(1e5)} {
		push = binary.BigEndian.AppendUint64(push, v)
	}
	push = wire.AppendString(push, "")
	push = binary.BigEndian.AppendUint32(push, 0)
	ckpt := binary.BigEndian.AppendUint32(nil, 0) // no lease snapshot
	ckpt = binary.BigEndian.AppendUint32(ckpt, 1)
	ckpt = wire.AppendString(ckpt, "a1\x00p00")
	ckpt = binary.BigEndian.AppendUint32(ckpt, uint32(len(push)))
	ckpt = append(ckpt, push...)

	dir := t.TempDir()
	a, _, err := archive.Recover(dir, archive.Options{}, archive.Consumer{
		Magic:      coordCkptMagic,
		Version:    1,
		Seed:       func([]byte) error { return nil },
		Apply:      func(archive.Record, bool) (bool, bool, error) { return true, true, nil },
		Checkpoint: func(b []byte) []byte { return append(b, ckpt...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	old := archive.Record{Kind: 0x20, Key: "a1\x00p00", Data: push}
	if err := a.Append(old); err != nil {
		t.Fatal(err)
	}
	if err := a.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(old); err != nil {
		t.Fatal(err)
	}
	a.Close()

	l, rep, err := OpenLog(dir, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	if !rep.CheckpointCorrupt || rep.ForeignRecords != 2 || rep.SealedRecords != 0 {
		t.Fatalf("report %v: want a corrupt checkpoint and 2 foreign records", rep)
	}
	fed := tsstore.NewFederation(tsstore.Config{})
	leases, restored, dropped := l.restore(fed)
	if leases != nil || restored != 0 || len(dropped) != 0 || len(fed.Paths()) != 0 {
		t.Fatalf("restore: leases %v, %d contributions, dropped %q, paths %v; want nothing", leases, restored, dropped, fed.Paths())
	}
}

// TestForeignCheckpointNotCorrupt: a directory the other consumer
// sealed holds that consumer's checkpoint, which OpenLog and OpenStore
// each report as foreign and not corrupt, and both still replay the
// records they own counted.
func TestForeignCheckpointNotCorrupt(t *testing.T) {
	storeDir := t.TempDir()
	st, be, _, err := archive.OpenStore(storeDir, archive.Options{}, tsstore.Config{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for r := range 3 {
		st.Observe(pathload.Sample{Path: "p00", Round: r, Result: pathload.Result{Lo: 1e6, Hi: 2e6}})
	}
	if err := be.Archive().Seal(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	l, logRep, err := OpenLog(storeDir, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog over a store's directory: %v", err)
	}
	l.Close()
	if !logRep.ForeignCheckpoint || logRep.CheckpointCorrupt || logRep.ForeignRecords != 3 {
		t.Errorf("OpenLog over a store's directory: %+v; want a foreign checkpoint, not a corrupt one, and 3 foreign records", logRep)
	}
	if s := logRep.String(); !strings.Contains(s, "checkpoint written by another consumer") {
		t.Errorf("report %q does not name the foreign checkpoint", s)
	}

	logDir := t.TempDir()
	l, _, err = OpenLog(logDir, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if err := l.saveLeases(LeaseSnapshot{Clock: time.Second, Agents: []string{"a1"}}); err != nil {
		t.Fatal(err)
	}
	point := tsstore.Point{Round: 1, Lo: 1e6, Hi: 2e6}.AppendCompact(nil)
	if err := l.Archive().Append(archive.Record{Kind: archive.KindPointCompact, Key: "p00", Data: point}); err != nil {
		t.Fatal(err)
	}
	if err := l.Archive().Seal(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	st, _, storeRep, err := archive.OpenStore(logDir, archive.Options{}, tsstore.Config{})
	if err != nil {
		t.Fatalf("OpenStore over a log's directory: %v", err)
	}
	total, _ := st.Totals("p00")
	st.Close()
	if !storeRep.ForeignCheckpoint || storeRep.CheckpointCorrupt || storeRep.SealedRecords != 1 || total != 1 {
		t.Errorf("OpenStore over a log's directory: %+v, p00 total %d; want a foreign checkpoint, not a corrupt one, and the point counted", storeRep, total)
	}
}

// TestOneSealerPerDirectory: a log opened over a store's compacted
// directory refuses to seal, explicitly or automatically, so the
// store's checkpoint — the only record of the compacted-away points —
// survives, and the refused records stay in the WAL.
func TestOneSealerPerDirectory(t *testing.T) {
	dir := t.TempDir()
	st, be, _, err := archive.OpenStore(dir, archive.Options{}, tsstore.Config{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for r := range 6 {
		st.Observe(pathload.Sample{Path: "p00", Round: r, Result: pathload.Result{Lo: 1e6, Hi: 2e6}})
		if r%3 == 2 {
			if err := be.Archive().Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if removed, err := be.Archive().Compact(1, 0); err != nil || len(removed) != 1 {
		t.Fatalf("Compact removed %v, %v; want the first segment", removed, err)
	}
	st.Close()

	for _, opt := range []archive.Options{{}, {SealBytes: 1}} {
		l, rep, err := OpenLog(dir, opt)
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		if !rep.ForeignCheckpoint {
			t.Errorf("OpenLog over a store's directory: %+v; want a foreign checkpoint", rep)
		}
		err = l.saveLeases(LeaseSnapshot{Clock: time.Second, Agents: []string{"a1"}})
		if opt.SealBytes == 0 && err == nil {
			err = l.Archive().Seal()
		}
		if !errors.Is(err, archive.ErrForeignCheckpoint) {
			t.Errorf("sealing a log over a store's checkpoint (SealBytes %d): %v; want ErrForeignCheckpoint", opt.SealBytes, err)
		}
		l.Close()
	}

	st, _, rep, err := archive.OpenStore(dir, archive.Options{}, tsstore.Config{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	total, _ := st.Totals("p00")
	st.Close()
	if rep.ForeignCheckpoint || rep.CheckpointCorrupt || total != 6 || rep.Segments != 1 || rep.TailRecords != 2 {
		t.Errorf("OpenStore after the refused seals: %+v, p00 total %d; want the store's checkpoint, total 6, 1 segment and both lease snapshots in the WAL", rep, total)
	}
}

// TestOpenLogAfterCompact: a log sealed three times and compacted down
// to its newest segment comes back whole from the checkpoint — the
// lease snapshot and the contribution that only the dropped segments
// held included. Under a junk checkpoint the report says so, and only
// what the retained segment holds comes back: nothing is guessed.
func TestOpenLogAfterCompact(t *testing.T) {
	snap := LeaseSnapshot{Clock: time.Second, Agents: []string{"a1", "a2"},
		Owners: []OwnerGroup{{Paths: []string{"p00"}, Owner: "a1"}}}
	// build writes three seals — the leases and a1/p00 (seq 1), then
	// a2/p01, then a1/p00 (seq 2) — and compacts all but the last; junk
	// makes every checkpoint undecodable.
	build := func(junk bool) string {
		dir := t.TempDir()
		l := &Log{contribs: map[string][]byte{}}
		c := archive.Consumer{Magic: coordCkptMagic, Version: coordCkptVersion,
			Seed: l.decodeCheckpoint, Apply: l.apply, OnAppend: l.onAppend, Checkpoint: l.checkpoint}
		if junk {
			c.Checkpoint = func(b []byte) []byte { return append(b, "junk"...) }
		}
		a, _, err := archive.Recover(dir, archive.Options{}, c)
		if err != nil {
			t.Fatal(err)
		}
		l.a = a
		for _, write := range []func() error{
			func() error { return l.saveLeases(snap) },
			func() error { return l.savePush("a1", "p00", marshalPush("p00", mkContribution(1, 2))) },
			a.Seal,
			func() error { return l.savePush("a2", "p01", marshalPush("p01", mkContribution(7, 3))) },
			a.Seal,
			func() error { return l.savePush("a1", "p00", marshalPush("p00", mkContribution(2, 5))) },
			a.Seal,
		} {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		}
		if removed, err := a.Compact(1, 0); err != nil || !reflect.DeepEqual(removed, []uint64{1, 2}) {
			t.Fatalf("Compact removed %v, %v; want segments 1 and 2", removed, err)
		}
		l.Close()
		return dir
	}
	reopen := func(dir string) (LogReport, *LeaseSnapshot, *tsstore.Federation) {
		l, rep, err := OpenLog(dir, archive.Options{})
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		defer l.Close()
		fed := tsstore.NewFederation(tsstore.Config{})
		leases, _, dropped := l.restore(fed)
		if len(dropped) != 0 {
			t.Fatalf("restore dropped %v", dropped)
		}
		return rep, leases, fed
	}

	rep, leases, fed := reopen(build(false))
	if rep.Segments != 1 || rep.SealedRecords != 0 || rep.CheckpointCorrupt {
		t.Fatalf("compacted log report %+v", rep)
	}
	if leases == nil || !reflect.DeepEqual(*leases, snap) {
		t.Fatalf("lease snapshot %+v, want %+v", leases, snap)
	}
	c0, ok0 := fed.Contribution("a1", "p00")
	c1, ok1 := fed.Contribution("a2", "p01")
	if !ok0 || c0.Seq != 2 || !ok1 || c1.Seq != 7 {
		t.Fatalf("contributions a1/p00 %+v (%v), a2/p01 %+v (%v)", c0, ok0, c1, ok1)
	}

	rep, leases, fed = reopen(build(true))
	if rep.Segments != 1 || rep.SealedRecords != 1 || !rep.CheckpointCorrupt {
		t.Fatalf("compacted log under a junk checkpoint: report %+v", rep)
	}
	if leases != nil {
		t.Fatalf("lease snapshot %+v came back from a compacted segment", leases)
	}
	if c0, ok := fed.Contribution("a1", "p00"); !ok || c0.Seq != 2 || !reflect.DeepEqual(fed.Paths(), []string{"p00"}) {
		t.Fatalf("restored paths %v, a1/p00 %+v; want only the retained a1/p00", fed.Paths(), c0)
	}
}

// TestRestoreReportsDroppedEntries: a log entry that no longer decodes
// is dropped with a transcript line naming it, never restored in part,
// and the closing count says what did come back.
func TestRestoreReportsDroppedEntries(t *testing.T) {
	log := &Log{
		contribs: map[string][]byte{
			"a1\x00p00": marshalPush("p00", mkContribution(3, 4)),
			"a1\x00p01": marshalPush("p00", mkContribution(1, 1)), // payload names another path
			"a2\x00p00": pushWithDigest(2, "p00", badDigests(t)["over budget"]),
			"nokey":     marshalPush("p00", mkContribution(1, 1)),
		},
		lease: []byte{1, 2, 3},
	}
	srv, err := NewServer(ServerConfig{Coord: Config{Paths: []string{"p00", "p01"}}, Log: log, Now: func() time.Duration { return 0 }})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	want := []string{
		"0s restore lease snapshot dropped: coord: lease snapshot truncated",
		`0s restore contribution a1/p01 dropped: payload path "p00" does not match key path "p01"`,
		"0s restore contribution a2/p00 dropped: coord: push digest refused: tsstore: digest holds 9 centroids against budget 1",
		`0s restore contribution "nokey" dropped: malformed key`,
		"0s restore 1 contributions, lease snapshot false",
	}
	if got := srv.Transcript(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore transcript:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if c, ok := srv.Federation().Contribution("a1", "p00"); !ok || c.Seq != 3 || len(srv.Federation().Paths()) != 1 {
		t.Fatalf("restored federation: paths %v, a1/p00 %+v", srv.Federation().Paths(), c)
	}
}

// TestCoordStatusShowsLogErrors: with a Log, /coord reports how many
// writes to it failed and the last error, so a coordinator writing to
// a failing disk shows it; the control plane keeps serving meanwhile.
func TestCoordStatusShowsLogErrors(t *testing.T) {
	log, _, err := OpenLog(t.TempDir(), archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	srv, addr := startServer(t, ServerConfig{Log: log, Now: func() time.Duration { return 0 }})
	status := func() string {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/coord", nil))
		return rec.Body.String()
	}
	if got := status(); !strings.HasSuffix(got, "\nlog errors 0 last -\n") {
		t.Fatalf("/coord over a healthy log:\n%s", got)
	}

	// Every write from here on fails: the registration's lease
	// snapshot, then the push.
	log.Close()
	conn, ft, _ := sendHello(t, addr, "a1", VersionMin, Version)
	defer conn.Close()
	if ft != msgHelloAck {
		t.Fatalf("register: got %v", ft)
	}
	if err := writeFrame(conn, msgPush, marshalPush("p00", mkContribution(1, 2))); err != nil {
		t.Fatalf("push: %v", err)
	}
	if ft, payload, err := readFrame(conn); err != nil || ft != msgPushAck {
		t.Fatalf("push answer = %v, %v", ft, err)
	} else if ack, _ := unmarshalPushAck(payload); !ack.Applied {
		t.Fatal("a push the log failed to store was not applied")
	}
	n, perr := srv.PersistErrs()
	if n != 2 || perr == nil {
		t.Fatalf("PersistErrs = %d, %v; want the lease write and the push", n, perr)
	}
	if want := fmt.Sprintf("\nlog errors 2 last %v\n", perr); !strings.HasSuffix(status(), want) {
		t.Fatalf("/coord does not end %q:\n%s", want, status())
	}
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
	srv1, err := NewServer(ServerConfig{Coord: coordCfg, AutoTick: true, Log: log1})
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
	held := 0 // contributions federated: an agent may have pushed a path before a steal moved it
	for _, p := range srv1.Federation().Paths() {
		held += len(srv1.Federation().Agents(p))
	}
	log1.Close()

	// Rebuild from the archive.
	log2, _, err := OpenLog(dir, archive.Options{})
	if err != nil {
		t.Fatalf("OpenLog(2): %v", err)
	}
	defer log2.Close()
	srv2, err := NewServer(ServerConfig{Coord: coordCfg, AutoTick: true, Log: log2})
	if err != nil {
		t.Fatalf("NewServer(2): %v", err)
	}
	defer srv2.Close()
	summary := fmt.Sprintf(" restore %d contributions, lease snapshot true", held)
	restoredAll := false
	for _, line := range srv2.Transcript() {
		if strings.Contains(line, "drop") {
			t.Fatalf("restore problem: %q", line)
		}
		restoredAll = restoredAll || strings.HasSuffix(line, summary)
	}
	if !restoredAll {
		t.Fatalf("no %q line in the restored transcript %q", summary, srv2.Transcript())
	}

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
