package archive

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/tsstore"
)

// errCrash simulates the process dying at a seal failpoint.
var errCrash = errors.New("injected crash")

// crashAt is a failpoint that crashes the seal at stage.
func crashAt(stage string) func(string) error {
	return func(s string) error {
		if s == stage {
			return errCrash
		}
		return nil
	}
}

// fixedCheckpoint is a checkpoint hook that seals blob every time.
func fixedCheckpoint(blob string) func() []byte {
	return func() []byte { return []byte(blob) }
}

// checkpointFiles fails the test unless dir's ckpt-* files are exactly
// want, in name order.
func checkpointFiles(t *testing.T, dir string, want ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ckptPrefix) {
			got = append(got, e.Name())
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("checkpoint files %v, want %v", got, want)
	}
}

// TestCrashMatrix is the crash-point fault-injection table: each case
// damages an archive the way a kill or corruption would at one precise
// point, then asserts recovery is exact-or-explicit — replay stops at
// the last verifiable record, and the report says exactly what was
// dropped or healed. Cases that cannot be healed (sealed-history
// damage) must refuse to open and fail Verify instead.
func TestCrashMatrix(t *testing.T) {
	// Every case starts from the same base: segment 1 sealed with
	// records 0..5 and its checkpoint file, WAL tail holding records
	// 6..9.
	mkBase := func(t *testing.T) string {
		dir := t.TempDir()
		a, _ := openT(t, dir, Options{})
		a.SetHooks(nil, fixedCheckpoint("seg 1"))
		appendN(t, a, 0, 6)
		if err := a.Seal(); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		appendN(t, a, 6, 4)
		a.Close()
		return dir
	}

	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
		// check runs after damage; it reopens (or fails to) and
		// asserts the recovery contract.
		check func(t *testing.T, dir string)
	}{
		{
			name: "torn wal tail",
			damage: func(t *testing.T, dir string) {
				// Kill mid-append: the last record is half-written.
				wal := filepath.Join(dir, walName)
				fi, err := os.Stat(wal)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(wal, fi.Size()-5); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, dir string) {
				a, rep := openT(t, dir, Options{})
				defer a.Close()
				if rep.DroppedTailBytes == 0 {
					t.Fatalf("torn tail not reported: %+v", rep)
				}
				if rep.TailRecords != 3 {
					t.Fatalf("tail records = %d, want 3 (replay stops at last whole record)", rep.TailRecords)
				}
				sealed, tail := collect(t, a)
				if len(sealed) != 6 || len(tail) != 3 {
					t.Fatalf("recovered %d sealed + %d tail", len(sealed), len(tail))
				}
			},
		},
		{
			name: "garbage wal tail",
			damage: func(t *testing.T, dir string) {
				// Bit rot (or a torn write of garbage) after the last
				// good record.
				f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.Write([]byte{0xde, 0xad, 0xbe, 0xef})
				f.Close()
			},
			check: func(t *testing.T, dir string) {
				a, rep := openT(t, dir, Options{})
				defer a.Close()
				if rep.DroppedTailBytes != 4 || rep.TailRecords != 4 {
					t.Fatalf("garbage tail: %+v", rep)
				}
			},
		},
		{
			name: "kill between checkpoint write and segment rename",
			damage: func(t *testing.T, dir string) {
				a, _ := openT(t, dir, Options{})
				a.SetHooks(nil, fixedCheckpoint("seg 2"))
				a.failpoint = crashAt("wrote-checkpoint")
				if err := a.Seal(); !errors.Is(err, errCrash) {
					t.Fatalf("failpoint not hit: %v", err)
				}
				a.Close()
				checkpointFiles(t, dir, "ckpt-00000001", "ckpt-00000002")
			},
			check: func(t *testing.T, dir string) {
				a, rep := openT(t, dir, Options{})
				defer a.Close()
				// The orphan names records the WAL still holds: it goes,
				// the WAL stays live, and segment 1's checkpoint stays.
				if rep.Segments != 1 || rep.TailRecords != 4 || rep.RemovedCheckpoints != 1 || rep.HealedHead {
					t.Fatalf("orphan-checkpoint recovery: %+v", rep)
				}
				checkpointFiles(t, dir, "ckpt-00000001")
				if got := string(a.Checkpoint()); got != "seg 1" {
					t.Fatalf("live checkpoint %q, want segment 1's", got)
				}
				sealed, tail := collect(t, a)
				if len(sealed) != 6 || len(tail) != 4 {
					t.Fatalf("records after orphan removal: %d sealed + %d tail", len(sealed), len(tail))
				}
			},
		},
		{
			name: "kill between segment rename and wal swap",
			damage: func(t *testing.T, dir string) {
				a, _ := openT(t, dir, Options{})
				a.failpoint = func(stage string) error {
					if stage == "sealed-segment" {
						return errCrash
					}
					return nil
				}
				if err := a.Seal(); !errors.Is(err, errCrash) {
					t.Fatalf("failpoint not hit: %v", err)
				}
				a.Close()
			},
			check: func(t *testing.T, dir string) {
				a, rep := openT(t, dir, Options{})
				defer a.Close()
				// The records the interrupted seal captured live in
				// segment 2; the stale WAL copy must be discarded, not
				// replayed twice.
				if rep.Segments != 2 || rep.StaleWALRecords != 4 || rep.TailRecords != 0 {
					t.Fatalf("stale-wal recovery: %+v", rep)
				}
				if !rep.HealedHead {
					t.Fatalf("HEAD should trail the adopted segment: %+v", rep)
				}
				sealed, tail := collect(t, a)
				if len(sealed) != 10 || len(tail) != 0 {
					t.Fatalf("duplicated or lost records: %d sealed + %d tail", len(sealed), len(tail))
				}
			},
		},
		{
			name: "kill between wal swap and head rewrite",
			damage: func(t *testing.T, dir string) {
				a, _ := openT(t, dir, Options{})
				a.failpoint = func(stage string) error {
					if stage == "swapped-wal" {
						return errCrash
					}
					return nil
				}
				if err := a.Seal(); !errors.Is(err, errCrash) {
					t.Fatalf("failpoint not hit: %v", err)
				}
				a.Close()
			},
			check: func(t *testing.T, dir string) {
				a, rep := openT(t, dir, Options{})
				defer a.Close()
				if rep.Segments != 2 || !rep.HealedHead || rep.StaleWALRecords != 0 {
					t.Fatalf("healed-head recovery: %+v", rep)
				}
				sealed, tail := collect(t, a)
				if len(sealed) != 10 || len(tail) != 0 {
					t.Fatalf("records after heal: %d sealed + %d tail", len(sealed), len(tail))
				}
			},
		},
		{
			name: "kill between head rewrite and checkpoint removal",
			damage: func(t *testing.T, dir string) {
				a, _ := openT(t, dir, Options{})
				a.SetHooks(nil, fixedCheckpoint("seg 2"))
				a.failpoint = crashAt("anchored-head")
				if err := a.Seal(); !errors.Is(err, errCrash) {
					t.Fatalf("failpoint not hit: %v", err)
				}
				a.Close()
				checkpointFiles(t, dir, "ckpt-00000001", "ckpt-00000002")
			},
			check: func(t *testing.T, dir string) {
				a, rep := openT(t, dir, Options{})
				defer a.Close()
				if rep.Segments != 2 || rep.TailRecords != 0 || rep.RemovedCheckpoints != 1 || rep.HealedHead || rep.StaleWALRecords != 0 {
					t.Fatalf("replaced-checkpoint recovery: %+v", rep)
				}
				checkpointFiles(t, dir, "ckpt-00000002")
				if got := string(a.Checkpoint()); got != "seg 2" {
					t.Fatalf("live checkpoint %q, want the one segment 2 names", got)
				}
				sealed, tail := collect(t, a)
				if len(sealed) != 10 || len(tail) != 0 {
					t.Fatalf("records after removal: %d sealed + %d tail", len(sealed), len(tail))
				}
			},
		},
		{
			name: "kill before first head write",
			damage: func(t *testing.T, dir string) {
				// Rebuild the window directly: a fresh archive whose
				// only seal never reached the HEAD write.
				os.RemoveAll(dir)
				a, _ := openT(t, dir, Options{})
				a.failpoint = func(stage string) error {
					if stage == "swapped-wal" {
						return errCrash
					}
					return nil
				}
				appendN(t, a, 0, 3)
				if err := a.Seal(); !errors.Is(err, errCrash) {
					t.Fatalf("failpoint not hit: %v", err)
				}
				a.Close()
				if _, err := os.Stat(filepath.Join(dir, headName)); !os.IsNotExist(err) {
					t.Fatalf("HEAD unexpectedly exists: %v", err)
				}
			},
			check: func(t *testing.T, dir string) {
				a, rep := openT(t, dir, Options{})
				defer a.Close()
				if rep.Segments != 1 || !rep.HealedHead {
					t.Fatalf("first-head recovery: %+v", rep)
				}
				sealed, _ := collect(t, a)
				if len(sealed) != 3 {
					t.Fatalf("records after heal: %d", len(sealed))
				}
			},
		},
		{
			name: "truncated segment",
			damage: func(t *testing.T, dir string) {
				seg := filepath.Join(dir, "seg-00000001")
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(seg, fi.Size()/2); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, dir string) {
				if _, _, err := Open(dir, Options{}); err == nil {
					t.Fatal("Open accepted a truncated segment")
				}
				rep, err := Verify(dir)
				if err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if rep.OK() {
					t.Fatal("truncated segment went undetected")
				}
			},
		},
		{
			name: "broken chain link",
			damage: func(t *testing.T, dir string) {
				// Grow to 3 segments, then flip one byte in the middle
				// one: both its own hash (checked by seg 3's
				// back-pointer) and its content CRCs go stale.
				a, _ := openT(t, dir, Options{})
				a.Seal()
				appendN(t, a, 10, 4)
				a.Seal()
				a.Close()
				seg := filepath.Join(dir, "seg-00000002")
				b, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0x10
				if err := os.WriteFile(seg, b, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, dir string) {
				if _, _, err := Open(dir, Options{}); err == nil {
					t.Fatal("Open accepted a broken chain")
				}
				rep, err := Verify(dir)
				if err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if rep.OK() {
					t.Fatal("broken chain went undetected")
				}
				var mentioned bool
				for _, p := range rep.Problems {
					mentioned = mentioned || strings.Contains(p, "segment 2")
				}
				if !mentioned {
					t.Fatalf("problems do not name the damaged segment: %v", rep.Problems)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := mkBase(t)
			tc.damage(t, dir)
			tc.check(t, dir)
		})
	}
}

// TestCrashStateStillVerifies pins that Verify distinguishes crash
// fallout from tampering: the legal seal crash windows (stale WAL,
// trailing HEAD, torn tail) must not be reported as integrity
// problems.
func TestCrashStateStillVerifies(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	appendN(t, a, 0, 4)
	a.Seal()
	appendN(t, a, 4, 4)
	a.failpoint = func(stage string) error {
		if stage == "sealed-segment" {
			return errCrash
		}
		return nil
	}
	if err := a.Seal(); !errors.Is(err, errCrash) {
		t.Fatalf("failpoint not hit: %v", err)
	}
	a.Close()
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("crash window misreported as tampering: %v", rep.Problems)
	}
}

// copyArchive copies the archive directory from into a fresh temporary
// directory and returns it.
func copyArchive(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// sameStore fails the test unless got, recovered from an archive,
// holds what want, fed the same samples in memory, holds: exposition,
// totals, error counts, digests, rings (Wall aside, which the archive
// does not keep) and link series.
func sameStore(t *testing.T, got, want *tsstore.Store) {
	t.Helper()
	if g, w := prom(t, got), prom(t, want); g != w {
		t.Fatalf("recovered store renders differently:\n--- got ---\n%s\n--- want ---\n%s", g, w)
	}
	if !reflect.DeepEqual(got.Paths(), want.Paths()) {
		t.Fatalf("paths %v, want %v", got.Paths(), want.Paths())
	}
	for _, p := range want.Paths() {
		gt, ge := got.Totals(p)
		wt, we := want.Totals(p)
		gd, _ := got.DigestSnapshot(p).MarshalBinary()
		wd, _ := want.DigestSnapshot(p).MarshalBinary()
		if gt != wt || ge != we || !bytes.Equal(gd, wd) {
			t.Fatalf("%s: totals (%d, %d) digest %x; want (%d, %d) %x", p, gt, ge, gd, wt, we, wd)
		}
		ring := want.Snapshot(p)
		for i := range ring {
			ring[i].Wall = time.Time{}
		}
		if g := got.Snapshot(p); !reflect.DeepEqual(g, ring) {
			t.Fatalf("%s: ring %+v, want %+v", p, g, ring)
		}
	}
	for _, l := range want.Links() {
		if got.LinkTotal(l) != want.LinkTotal(l) || !reflect.DeepEqual(got.LinkSnapshot(l), want.LinkSnapshot(l)) {
			t.Fatalf("link %s: %d windows %+v, want %d %+v", l, got.LinkTotal(l), got.LinkSnapshot(l), want.LinkTotal(l), want.LinkSnapshot(l))
		}
	}
}

// TestSealCrashStoreRecovery crashes a store-backed archive's second
// seal at every step boundary. Whatever the crash left verifies; Open
// replays every record once and removes the checkpoint file the newest
// segment does not name; OpenStore recovers exactly what an in-memory
// store fed the same samples holds; and the recovered store seals on,
// keeping one checkpoint file.
func TestSealCrashStoreRecovery(t *testing.T) {
	cfg := tsstore.Config{Capacity: 16}
	for _, stage := range []string{"wrote-checkpoint", "sealed-segment", "swapped-wal", "anchored-head"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			st, be, _ := openStoreT(t, dir, Options{}, cfg)
			control := tsstore.New(cfg)
			feed(st, testPaths, 0, 6)
			if err := be.Archive().Seal(); err != nil {
				t.Fatal(err)
			}
			feed(st, testPaths, 6, 10)
			feed(control, testPaths, 0, 10)
			be.Archive().failpoint = crashAt(stage)
			if err := be.Archive().Seal(); !errors.Is(err, errCrash) {
				t.Fatalf("failpoint not hit: %v", err)
			}
			st.Close()
			checkpointFiles(t, dir, "ckpt-00000001", "ckpt-00000002")
			if rep, err := Verify(dir); err != nil || !rep.OK() {
				t.Fatalf("crash state fails Verify: %v %v", err, rep.Problems)
			}
			// The seal's segment is in only once its rename happened.
			segs, live, next := 2, "ckpt-00000002", "ckpt-00000003"
			if stage == "wrote-checkpoint" {
				segs, live, next = 1, "ckpt-00000001", "ckpt-00000002"
			}

			cp := copyArchive(t, dir)
			a, rep := openT(t, cp, Options{})
			sealed, tail := collect(t, a)
			a.Close()
			if want := 10 * (len(testPaths) + 1); rep.Segments != segs || len(sealed)+len(tail) != want || rep.RemovedCheckpoints != 1 {
				t.Fatalf("Open: %+v, %d sealed + %d tail records; want %d segments, %d records, one checkpoint file removed",
					rep, len(sealed), len(tail), segs, want)
			}
			checkpointFiles(t, cp, live)

			re, be2, srep := openStoreT(t, dir, Options{}, cfg)
			if srep.RemovedCheckpoints != 1 || srep.CheckpointCorrupt {
				t.Fatalf("OpenStore: %+v", srep)
			}
			checkpointFiles(t, dir, live)
			sameStore(t, re, control)

			feed(re, testPaths, 10, 12)
			feed(control, testPaths, 10, 12)
			if err := be2.Archive().Seal(); err != nil {
				t.Fatal(err)
			}
			re.Close()
			checkpointFiles(t, dir, next)
			re, _, srep = openStoreT(t, dir, Options{}, cfg)
			defer re.Close()
			if srep.RemovedCheckpoints != 0 || srep.TailRecords != 0 {
				t.Fatalf("reopen after sealing on: %+v", srep)
			}
			sameStore(t, re, control)
			if rep, err := Verify(dir); err != nil || !rep.OK() {
				t.Fatalf("Verify after sealing on: %v %v", err, rep.Problems)
			}
		})
	}
}

// TestCheckpointFileDamage damages the checkpoint files of a sound
// store-backed archive whose newest segment, its second, names
// ckpt-00000002. Deleting that live file, flipping a byte of it or
// cutting it short is damage to sealed history, never crash fallout:
// Verify names the file, and Open and OpenStore refuse the directory,
// as they refuse a broken chain link, and leave it as it was. A file no
// segment names — the checkpoint the second seal replaced, left beside
// the live one, or an orphan from a seal that crashed before its
// segment rename — is crash fallout: Verify passes, and OpenStore
// removes it, says so, and recovers the store exactly.
func TestCheckpointFileDamage(t *testing.T) {
	cfg := tsstore.Config{Capacity: 16}
	base := t.TempDir()
	st, be, _ := openStoreT(t, base, Options{}, cfg)
	feed(st, testPaths, 0, 5)
	if err := be.Archive().Seal(); err != nil {
		t.Fatal(err)
	}
	replaced, err := os.ReadFile(filepath.Join(base, "ckpt-00000001"))
	if err != nil {
		t.Fatal(err)
	}
	feed(st, testPaths, 5, 10)
	if err := be.Archive().Seal(); err != nil {
		t.Fatal(err)
	}
	feed(st, testPaths, 10, 12)
	st.Close()
	checkpointFiles(t, base, "ckpt-00000002")
	control := tsstore.New(cfg)
	feed(control, testPaths, 0, 12)
	const live = "ckpt-00000002"

	for _, c := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		files  []string // checkpoint files the damage leaves
		sound  bool     // crash fallout rather than damage to sealed history
	}{
		{"live checkpoint deleted", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, live)); err != nil {
				t.Fatal(err)
			}
		}, nil, false},
		{"flipped byte in the live checkpoint", func(t *testing.T, dir string) {
			path := filepath.Join(dir, live)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x01
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, []string{live}, false},
		{"live checkpoint cut short", func(t *testing.T, dir string) {
			path := filepath.Join(dir, live)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
		}, []string{live}, false},
		{"replaced checkpoint left beside the live one", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "ckpt-00000001"), replaced, 0o644); err != nil {
				t.Fatal(err)
			}
		}, []string{"ckpt-00000001", live}, true},
		{"orphan from a crash before the segment rename", func(t *testing.T, dir string) {
			st, be, _ := openStoreT(t, dir, Options{}, cfg)
			be.Archive().failpoint = crashAt("wrote-checkpoint")
			if err := be.Archive().Seal(); !errors.Is(err, errCrash) {
				t.Fatalf("failpoint not hit: %v", err)
			}
			st.Close()
		}, []string{live, "ckpt-00000003"}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := copyArchive(t, base)
			c.damage(t, dir)
			checkpointFiles(t, dir, c.files...)
			rep, err := Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !c.sound {
				if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), live) {
					t.Fatalf("Verify problems %q do not name %s", rep.Problems, live)
				}
				if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), live) {
					t.Fatalf("Open: %v, want an error naming %s", err, live)
				}
				if _, _, _, err := OpenStore(dir, Options{}, cfg); err == nil || !strings.Contains(err.Error(), live) {
					t.Fatalf("OpenStore: %v, want an error naming %s", err, live)
				}
				checkpointFiles(t, dir, c.files...)
				return
			}
			if !rep.OK() {
				t.Fatalf("crash fallout fails Verify: %v", rep.Problems)
			}
			re, _, srep := openStoreT(t, dir, Options{}, cfg)
			defer re.Close()
			if srep.RemovedCheckpoints != 1 || srep.CheckpointCorrupt || !strings.Contains(srep.String(), "removed 1 unnamed checkpoint files") {
				t.Fatalf("OpenStore: %v", srep)
			}
			checkpointFiles(t, dir, live)
			sameStore(t, re, control)
		})
	}
}
