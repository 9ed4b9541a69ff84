package main

import (
	"encoding/binary"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// regenFixture rebuilds testdata/mini from scratch, in the one form
// today's writer writes: version 2 segments, KindPointCompact and
// KindLink records, one live version 2 checkpoint file. Run with
// PATHLOAD_REGEN_FIXTURE=1 when the on-disk format changes, and commit
// the result; the archive and tsstore fuzz seeds taken from it
// (internal/archive/testdata/fuzz, internal/tsstore/testdata/fuzz) then
// move with it.
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
		case archive.KindPointCompact:
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

// TestVersion1SegmentRefused: a segment of the format before version 2
// — no checkpoint hash in its header, the checkpoint inline after it —
// is refused by its version, by name, wherever it is read: Open, Verify,
// Walk and the built `pathload-archive verify`, which exits 1.
func TestVersion1SegmentRefused(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, fixtureDir, dir)
	editFile(t, filepath.Join(dir, "seg-00000001"), func(b []byte) []byte {
		v1 := append([]byte(nil), b[:segHdrLen-32]...) // the header less its checkpoint hash
		v1[5] = 1
		binary.BigEndian.PutUint32(v1[len(v1)-4:], 0) // no checkpoint inline
		return append(v1, b[segHdrLen:]...)
	})
	const want = "segment format version 1, want 2"
	if _, _, err := archive.Open(dir, archive.Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Open: %v; want %q", err, want)
	}
	if rep, err := archive.Verify(dir); err != nil || rep.OK() || !strings.Contains(rep.String(), want) {
		t.Errorf("Verify: %v\n%s; want %q", err, rep, want)
	}
	if err := archive.Walk(dir, func(archive.Record, bool) error { return nil }); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Walk: %v; want %q", err, want)
	}

	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(t.TempDir(), "pathload-archive")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "verify", dir)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), want) {
		t.Errorf("pathload-archive verify: %v\n%s; want exit 1 and %q", err, out, want)
	}
}
