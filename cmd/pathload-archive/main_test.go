package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/tsstore"

	pathload "repro"
)

// fixtureDir is a committed mini-archive: two sealed hash-chained
// segments plus a WAL tail, written with an injected clock so the
// bytes are reproducible. CI runs `pathload-archive verify` over it;
// TestFixtureTamperDetection proves a single flipped byte anywhere in
// sealed history fails the walk.
const fixtureDir = "testdata/mini"

// regenFixture rebuilds testdata/mini from scratch. Run with
// PATHLOAD_REGEN_FIXTURE=1 when the on-disk format changes, and
// commit the result. The committed fixture predates the compact point
// kind and checkpoint version 2 (its points are KindPoint records under
// a version 1 checkpoint), and TestMixedFormatRecovery holds today's
// reader and writer to that older form: regenerating writes today's
// form and loses that coverage.
func regenFixture(t *testing.T) {
	t.Helper()
	if err := os.RemoveAll(fixtureDir); err != nil {
		t.Fatal(err)
	}
	st, backend, _, err := archive.OpenStore(fixtureDir, archive.Options{
		NowUnix: func() int64 { return 1700000000 },
	}, tsstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sample := fixtureSample
	for r := 0; r < 3; r++ {
		st.Observe(sample("p00", r, 4e6, 6e6))
		st.Observe(sample("p01", r, 2e6, 3e6))
		st.ObserveLink("hop-01", r, time.Duration(r)*time.Second, time.Second, 0.4, 10e6)
	}
	if err := backend.Archive().Seal(); err != nil {
		t.Fatal(err)
	}
	for r := 3; r < 5; r++ {
		st.Observe(sample("p00", r, 5e6, 7e6))
	}
	if err := backend.Archive().Seal(); err != nil {
		t.Fatal(err)
	}
	// Leave a live WAL tail so verify exercises both sources.
	st.Observe(sample("p01", 3, 2.5e6, 3.5e6))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// fixtureSample is the fixture's sample of path in round: one second
// per round, a 200 ms measurement of [lo, hi].
func fixtureSample(path string, round int, lo, hi float64) pathload.Sample {
	return pathload.Sample{
		Path:  path,
		Round: round,
		At:    time.Duration(round) * time.Second,
		Result: pathload.Result{
			Lo: lo, Hi: hi,
			Elapsed: 200 * time.Millisecond,
			Bits:    96000,
		},
	}
}

func maybeRegen(t *testing.T) {
	if os.Getenv("PATHLOAD_REGEN_FIXTURE") != "" {
		regenFixture(t)
	}
}

// TestFixtureVerifies pins the committed fixture: the integrity walk
// passes and sees the expected shape.
func TestFixtureVerifies(t *testing.T) {
	maybeRegen(t)
	rep, err := archive.Verify(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("committed fixture fails verify:\n%s", rep.String())
	}
	if len(rep.Segments) != 2 {
		t.Errorf("fixture has %d segments, want 2", len(rep.Segments))
	}
	if rep.SealedRecords != 11 || rep.WALRecords != 1 {
		t.Errorf("fixture holds %d sealed + %d tail records, want 11 + 1",
			rep.SealedRecords, rep.WALRecords)
	}
}

// TestFixtureDecodes walks the fixture through the kind decoders —
// the same code path `pathload-archive cat` uses.
func TestFixtureDecodes(t *testing.T) {
	maybeRegen(t)
	points, links := 0, 0
	err := archive.Walk(fixtureDir, func(r archive.Record, sealed bool) error {
		switch r.Kind {
		case archive.KindPoint, archive.KindPointCompact:
			path, p, err := archive.DecodePointRecord(r)
			if err != nil {
				return err
			}
			if path == "" || p.Hi <= p.Lo {
				t.Errorf("decoded point %q %+v looks wrong", path, p)
			}
			points++
		case archive.KindLink:
			if _, _, err := archive.DecodeLinkRecord(r); err != nil {
				return err
			}
			links++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if points != 9 || links != 3 {
		t.Errorf("fixture decodes %d points + %d links, want 9 + 3", points, links)
	}
}

// TestFixtureTamperDetection copies the fixture and flips one byte at
// several offsets in every sealed segment: header, first record,
// middle, and last byte. Verify must fail each time — the acceptance
// bar for the hash chain.
func TestFixtureTamperDetection(t *testing.T) {
	maybeRegen(t)
	ents, err := os.ReadDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) != 2 {
		t.Fatalf("fixture has %d seg files, want 2: %v", len(segs), segs)
	}
	for _, seg := range segs {
		orig, err := os.ReadFile(filepath.Join(fixtureDir, seg))
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{0, 40, len(orig) / 2, len(orig) - 1} {
			dir := t.TempDir()
			copyDir(t, fixtureDir, dir)
			tampered := append([]byte(nil), orig...)
			tampered[off] ^= 0x01
			if err := os.WriteFile(filepath.Join(dir, seg), tampered, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := archive.Verify(dir)
			if err != nil {
				// An unparsable header is also detection — but Verify
				// reports structure problems in the report, not err.
				t.Fatalf("%s offset %d: verify errored: %v", seg, off, err)
			}
			if rep.OK() {
				t.Errorf("%s offset %d: flipped byte not detected:\n%s", seg, off, rep.String())
			}
		}
	}
}

// TestVerifyCleanCopy guards the tamper test itself: an unmodified
// copy must pass, so failures above are the flip, not the copying.
func TestVerifyCleanCopy(t *testing.T) {
	maybeRegen(t)
	dir := t.TempDir()
	copyDir(t, fixtureDir, dir)
	rep, err := archive.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean copy fails verify:\n%s", rep.String())
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
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
}

// TestMixedFormatRecovery: today's writer appends to an archive of the
// older form — a copy of the fixture, KindPoint records under a version
// 1 checkpoint inside version 1 segments — and seals a version 2
// segment, whose checkpoint is the one file beside it. The reopened
// store holds exactly what an in-memory store fed the same points holds
// (totals, error counts, digests, rings, link series), the archive
// verifies, and cat prints both point kinds in one line format.
func TestMixedFormatRecovery(t *testing.T) {
	maybeRegen(t)
	dir := t.TempDir()
	copyDir(t, fixtureDir, dir)
	control := tsstore.New(tsstore.Config{})
	err := archive.Walk(fixtureDir, func(r archive.Record, _ bool) error {
		switch r.Kind {
		case archive.KindPoint:
			path, p, err := archive.DecodePointRecord(r)
			control.ReplayPoint(path, p, true)
			return err
		case archive.KindLink:
			link, lp, err := archive.DecodeLinkRecord(r)
			control.ReplayLink(link, lp, true)
			return err
		}
		return fmt.Errorf("fixture holds a kind 0x%02x record", r.Kind)
	})
	if err != nil {
		t.Fatal(err)
	}

	opts := archive.Options{NowUnix: func() int64 { return 1700000100 }}
	st, backend, rep, err := archive.OpenStore(dir, opts, tsstore.Config{})
	if err != nil || rep.CheckpointCorrupt || rep.ForeignRecords != 0 {
		t.Fatalf("OpenStore(fixture copy): %v, %v", rep, err)
	}
	observe := func(s pathload.Sample) { st.Observe(s); control.Observe(s) }
	observe(fixtureSample("p00", 5, 4.5e6, 6.5e6))
	observe(fixtureSample("p02", 0, 1e6, 1.5e6))
	st.ObserveLink("hop-01", 3, 3*time.Second, time.Second, 0.5, 10e6)
	control.ObserveLink("hop-01", 3, 3*time.Second, time.Second, 0.5, 10e6)
	if err := backend.Archive().Seal(); err != nil {
		t.Fatal(err)
	}
	var versions, ckpts []string
	for _, name := range []string{"seg-00000001", "seg-00000002", "seg-00000003"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, fmt.Sprint(binary.BigEndian.Uint16(b[4:6])))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ckpt-") {
			ckpts = append(ckpts, e.Name())
		}
	}
	if got := strings.Join(versions, " ") + " | " + strings.Join(ckpts, " "); got != "1 1 2 | ckpt-00000003" {
		t.Fatalf("segment versions and checkpoint files after the seal: %s, want 1 1 2 | ckpt-00000003", got)
	}
	observe(pathload.Sample{Path: "p01", Round: 4, At: 4 * time.Second, Err: errors.New("timeout"),
		Result: pathload.Result{Elapsed: 200 * time.Millisecond, Bits: 96000}})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, _, rep, err := archive.OpenStore(dir, opts, tsstore.Config{})
	if err != nil || rep.CheckpointCorrupt || rep.ForeignRecords != 0 || rep.SealedRecords != 15 || rep.TailRecords != 1 {
		t.Fatalf("reopen: %v, %v; want 15 sealed + 1 tail records under a sound checkpoint", rep, err)
	}
	defer re.Close()
	if got, want := re.Paths(), control.Paths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("paths %v, want %v", got, want)
	}
	for _, p := range control.Paths() {
		gt, ge := re.Totals(p)
		wt, we := control.Totals(p)
		gd := re.DigestSnapshot(p).AppendBinary(nil)
		wd := control.DigestSnapshot(p).AppendBinary(nil)
		if gt != wt || ge != we || !bytes.Equal(gd, wd) {
			t.Errorf("%s: totals (%d, %d) digest %x; want (%d, %d) %x", p, gt, ge, gd, wt, we, wd)
		}
		if got, want := re.Snapshot(p), control.Snapshot(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ring %+v, want %+v", p, got, want)
		}
	}
	if re.LinkTotal("hop-01") != 4 || !reflect.DeepEqual(re.LinkSnapshot("hop-01"), control.LinkSnapshot("hop-01")) {
		t.Errorf("link hop-01: %d windows %+v, want 4 %+v", re.LinkTotal("hop-01"), re.LinkSnapshot("hop-01"), control.LinkSnapshot("hop-01"))
	}
	var got, want bytes.Buffer
	re.WritePrometheus(&got)
	control.WritePrometheus(&want)
	if got.String() != want.String() {
		t.Errorf("recovered exposition differs:\n%s\nwant\n%s", got.String(), want.String())
	}
	if ver, err := archive.Verify(dir); err != nil || !ver.OK() {
		t.Fatalf("mixed archive does not verify: %v\n%s", err, ver.String())
	}
	kinds := map[uint8]int{}
	if err := archive.Walk(dir, func(r archive.Record, _ bool) error { kinds[r.Kind]++; return nil }); err != nil {
		t.Fatal(err)
	}
	if kinds[archive.KindPoint] != 9 || kinds[archive.KindPointCompact] != 3 {
		t.Errorf("mixed archive holds %d KindPoint and %d KindPointCompact records, want 9 and 3", kinds[archive.KindPoint], kinds[archive.KindPointCompact])
	}

	text, err := catOutput(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`seg point p00          round=4 at=4s span=200ms lo=5000000 hi=7000000 bits=96000 err=""`,
		`seg point p01          round=3 at=3s span=200ms lo=2500000 hi=3500000 bits=96000 err=""`,
		`seg point p00          round=5 at=5s span=200ms lo=4500000 hi=6500000 bits=96000 err=""`,
		`seg point p02          round=0 at=0s span=200ms lo=1000000 hi=1500000 bits=96000 err=""`,
		`seg link  hop-01       round=3 at=3s span=1s util=0.500 cap=10000000`,
		`wal point p01          round=4 at=4s span=200ms lo=0 hi=0 bits=96000 err="timeout"`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("cat output lacks %q:\n%s", line, text)
		}
	}
}
