package archive

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// rec builds a small test record with derived contents.
func rec(i int) Record {
	return Record{
		Kind: uint8(1 + i%3),
		Key:  fmt.Sprintf("key-%02d", i%5),
		Data: []byte(fmt.Sprintf("payload-%04d", i)),
	}
}

// openT opens dir with a scripted clock, failing the test on error.
func openT(t *testing.T, dir string, opt Options) (*Archive, OpenReport) {
	t.Helper()
	if opt.NowUnix == nil {
		clock := int64(1000)
		opt.NowUnix = func() int64 { clock++; return clock }
	}
	a, rep, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return a, rep
}

// appendN appends records rec(from)..rec(from+n-1).
func appendN(t *testing.T, a *Archive, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := a.Append(rec(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

// kept is r with its Data copied out of the buffer a reader lent it
// from, for a test that holds records past the callback.
func kept(r Record) Record {
	r.Data = append([]byte(nil), r.Data...)
	return r
}

// collect walks the archive into (sealed, tail) record slices.
func collect(t *testing.T, a *Archive) (sealed, tail []Record) {
	t.Helper()
	if err := Walk(a.Dir(), func(r Record, isSealed bool) error {
		if isSealed {
			sealed = append(sealed, kept(r))
		} else {
			tail = append(tail, kept(r))
		}
		return nil
	}); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	return sealed, tail
}

func TestRecordRoundtrip(t *testing.T) {
	cases := []Record{
		{Kind: 0, Key: "", Data: nil},
		{Kind: 7, Key: "path-00", Data: []byte("x")},
		{Kind: 255, Key: "k", Data: bytes.Repeat([]byte{0xA5}, 1000)},
	}
	var buf []byte
	for _, r := range cases {
		var err error
		buf, err = appendRecord(buf, r)
		if err != nil {
			t.Fatalf("appendRecord: %v", err)
		}
	}
	recs, off, err := streamRecords(buf)
	if err != nil {
		t.Fatalf("reading records back: %v", err)
	}
	if len(recs) != len(cases) {
		t.Fatalf("read %d records, want %d", len(recs), len(cases))
	}
	for i, want := range cases {
		got := recs[i]
		if got.Kind != want.Kind || got.Key != want.Key || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestRecordBounds(t *testing.T) {
	if _, err := appendRecord(nil, Record{Data: make([]byte, MaxData+1)}); err == nil {
		t.Fatal("oversized data accepted")
	}
	// A torn frame reads as short, a bit-flipped one as corrupt.
	buf, _ := appendRecord(nil, rec(0))
	if _, _, err := streamRecords(buf[:len(buf)-1]); err != errShortRecord {
		t.Fatalf("torn record: %v", err)
	}
	flipped := append([]byte(nil), buf...)
	flipped[10] ^= 0x01
	if _, _, err := streamRecords(flipped); err != errCorruptRecord {
		t.Fatalf("flipped record: %v", err)
	}
}

func TestAppendSealReplay(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	appendN(t, a, 0, 10)
	if err := a.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	appendN(t, a, 10, 4)
	segs := a.Segments()
	if len(segs) != 1 || segs[0].Index != 1 || segs[0].Records != 10 {
		t.Fatalf("segments: %+v", segs)
	}
	if got := a.TailRecords(); got != 4 {
		t.Fatalf("TailRecords = %d, want 4", got)
	}
	sealed, tail := collect(t, a)
	for i, r := range append(sealed, tail...) {
		if want := rec(i); !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d: got %+v want %+v", i, r, want)
		}
	}
	if len(sealed) != 10 || len(tail) != 4 {
		t.Fatalf("sealed %d tail %d", len(sealed), len(tail))
	}
	// Sealing the tail makes segment 2; a further empty seal is a no-op.
	if err := a.Seal(); err != nil {
		t.Fatalf("Seal tail: %v", err)
	}
	if err := a.Seal(); err != nil {
		t.Fatalf("empty Seal: %v", err)
	}
	if got := len(a.Segments()); got != 2 {
		t.Fatalf("segments after tail seal + empty seal: %d, want 2", got)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReopenPreservesEverything(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	appendN(t, a, 0, 6)
	a.Seal()
	appendN(t, a, 6, 3)
	a.Close()

	b, rep := openT(t, dir, Options{})
	defer b.Close()
	if rep.Segments != 1 || rep.TailRecords != 3 || rep.DroppedTailBytes != 0 || rep.HealedHead {
		t.Fatalf("clean reopen report: %+v", rep)
	}
	sealed, tail := collect(t, b)
	if len(sealed) != 6 || len(tail) != 3 {
		t.Fatalf("reopen: sealed %d tail %d", len(sealed), len(tail))
	}
	// The next seal chains onto the recovered newest segment.
	if err := b.Seal(); err != nil {
		t.Fatalf("Seal after reopen: %v", err)
	}
	segs := b.Segments()
	if len(segs) != 2 || segs[1].PrevHash != segs[0].Hash {
		t.Fatalf("chain after reopen: %+v", segs)
	}
}

func TestAutoSeal(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{SealBytes: 64})
	defer a.Close()
	appendN(t, a, 0, 20)
	if len(a.Segments()) < 2 {
		t.Fatalf("SealBytes=64 after 20 records: %d segments", len(a.Segments()))
	}
	sealed, tail := collect(t, a)
	if len(sealed)+len(tail) != 20 {
		t.Fatalf("lost records: %d sealed + %d tail", len(sealed), len(tail))
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	for s := 0; s < 4; s++ {
		appendN(t, a, s*5, 5)
		if err := a.Seal(); err != nil {
			t.Fatalf("Seal %d: %v", s, err)
		}
	}
	removed, err := a.Compact(2*a.Segments()[3].Bytes+a.Segments()[2].Bytes, 0)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if len(removed) == 0 {
		t.Fatal("Compact removed nothing")
	}
	for _, idx := range removed {
		if _, err := os.Stat(segPath(a.dir, idx)); !os.IsNotExist(err) {
			t.Fatalf("segment %d survived removal", idx)
		}
	}
	// The chain stays verifiable from the oldest survivor.
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("post-compact verify: %v", rep.Problems)
	}
	// Age-based compaction with a scripted clock far in the future
	// removes all but the newest.
	a.opt.NowUnix = func() int64 { return 1 << 40 }
	if _, err := a.Compact(0, time.Second); err != nil {
		t.Fatalf("age Compact: %v", err)
	}
	if got := len(a.Segments()); got != 1 {
		t.Fatalf("age compact kept %d segments, want 1 (newest is never removed)", got)
	}
	a.Close()
	// Reopen after compaction: the surviving suffix loads cleanly.
	b, rep2 := openT(t, dir, Options{})
	defer b.Close()
	if rep2.Segments != 1 {
		t.Fatalf("reopen after compact: %+v", rep2)
	}
}

// TestVerifyDetectsAnyFlippedByte is the tamper-evidence acceptance
// criterion: a single flipped byte anywhere in any sealed segment —
// header, checkpoint hash, record region — or in the live checkpoint
// file must fail verification via the hash chain or HEAD anchor.
func TestVerifyDetectsAnyFlippedByte(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	a.checkpoint = func(b []byte) []byte { return append(b, "checkpoint-blob"...) }
	for s := 0; s < 3; s++ {
		appendN(t, a, s*4, 4)
		if err := a.Seal(); err != nil {
			t.Fatalf("Seal: %v", err)
		}
	}
	a.Close()
	if rep, err := Verify(dir); err != nil || !rep.OK() {
		t.Fatalf("clean archive fails verify: %v %v", err, rep.Problems)
	}
	for _, name := range []string{"seg-00000001", "seg-00000002", "seg-00000003", "ckpt-00000003"} {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Try a byte in every region: header, checkpoint hash, records;
		// and the first, a middle and the last of the checkpoint's.
		offs := []int{6, segHdrLen - sha256.Size + 3, segHdrLen + 3, len(orig) - 2}
		if strings.HasPrefix(name, ckptPrefix) {
			offs = []int{0, len(orig) / 2, len(orig) - 1}
		}
		for _, off := range offs {
			mod := append([]byte(nil), orig...)
			mod[off] ^= 0x40
			if err := os.WriteFile(path, mod, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(dir)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if rep.OK() {
				t.Fatalf("flipped byte at %s offset %d went undetected", name, off)
			}
			if _, _, err := Open(dir, Options{}); err == nil {
				t.Fatalf("Open accepted tampered %s (offset %d)", name, off)
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyDetectsHeadTamper: a HEAD that names the newest segment by
// another hash, or that trails it by one seal — the window a crash
// before the HEAD rewrite leaves — but names the older segment by a
// hash not its own, is tampering that Verify reports and Open refuses.
func TestVerifyDetectsHeadTamper(t *testing.T) {
	for _, c := range []struct {
		name  string
		seals int
		index int // the segment the tampered HEAD names
	}{
		{"re-anchored newest", 1, 1},
		{"trailing HEAD with a bogus hash", 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			a, _ := openT(t, dir, Options{})
			for s := 0; s < c.seals; s++ {
				appendN(t, a, s*3, 3)
				if err := a.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			a.Close()
			head := filepath.Join(dir, headName)
			// Name the segment by a hash that is neither its own nor any
			// other segment's (re-anchoring attack).
			bogus := fmt.Sprintf("%s%d %x\n", headPrefix, c.index, bytes.Repeat([]byte{0x5a}, 32))
			if err := os.WriteFile(head, []byte(bogus), 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(dir)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if rep.OK() {
				t.Fatal("tampered HEAD went undetected")
			}
			if _, _, err := Open(dir, Options{}); err == nil {
				t.Fatal("Open accepted tampered HEAD")
			}
		})
	}
}

func TestWalkStreamsEverything(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	appendN(t, a, 0, 5)
	a.Seal()
	appendN(t, a, 5, 2)
	a.Close()
	var got []Record
	var sealedN int
	err := Walk(dir, func(r Record, sealed bool) error {
		if sealed {
			sealedN++
		}
		got = append(got, kept(r))
		return nil
	})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if len(got) != 7 || sealedN != 5 {
		t.Fatalf("Walk: %d records (%d sealed)", len(got), sealedN)
	}
	for i, r := range got {
		if want := rec(i); !reflect.DeepEqual(r, want) {
			t.Fatalf("walk record %d: got %+v want %+v", i, r, want)
		}
	}
}

// TestWalkRejectsForeignWAL: a wal.log that is not this format's — a
// foreign magic, a future version, a file shorter than the header — is
// an error naming the file, as Open and Verify treat it, not a byte
// soup to scan for records from offset 14.
func TestWalkRejectsForeignWAL(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	appendN(t, a, 0, 5)
	a.Seal()
	appendN(t, a, 5, 2)
	a.Close()
	walPath := filepath.Join(dir, walName)
	good, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(b []byte) []byte{
		"wrong magic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"wrong version": func(b []byte) []byte { b[5] = Version + 1; return b },
		"short header":  func(b []byte) []byte { return b[:walHdrLen-1] },
	} {
		if err := os.WriteFile(walPath, damage(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		sealed, tail := 0, 0
		err := Walk(dir, func(_ Record, s bool) error {
			if s {
				sealed++
			} else {
				tail++
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), walName) {
			t.Errorf("%s: Walk error = %v, want one naming %s", name, err, walName)
		}
		if sealed != 5 || tail != 0 {
			t.Errorf("%s: Walk delivered %d sealed and %d tail records, want 5 and 0", name, sealed, tail)
		}
		if rep, verr := Verify(dir); verr != nil || rep.OK() {
			t.Errorf("%s: Verify = %v, %v; want a reported problem", name, rep, verr)
		}
		if _, _, oerr := Open(dir, Options{}); oerr == nil {
			t.Errorf("%s: Open accepted the WAL", name)
		}
	}
}

func TestOpenRejectsSequenceGap(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	for s := 0; s < 3; s++ {
		appendN(t, a, s*2, 2)
		a.Seal()
	}
	a.Close()
	if err := os.Remove(filepath.Join(dir, "seg-00000002")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a segment sequence gap")
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.OK() {
		t.Fatal("sequence gap went undetected by Verify")
	}
}

// TestSegmentHeaderBounds: the header's record count and checkpoint
// length are u32 fields. A value they cannot hold is an error from the
// function that builds the header, which leaves its buffer as it was —
// and from a seal, before it writes any file. Values at the bound
// round-trip.
func TestSegmentHeaderBounds(t *testing.T) {
	h := segHeader{index: 9, sealedUnix: 1700000000, records: math.MaxUint32, ckptLen: math.MaxUint32}
	h.prevHash[0], h.ckptHash[31] = 0xaa, 0xbb
	b, err := appendSegHeader([]byte("x"), h)
	if err != nil || len(b) != 1+segHdrLen {
		t.Fatalf("at the bound: %d bytes, %v", len(b), err)
	}
	if got, err := parseSegHeader(b[1:]); err != nil || got != h {
		t.Fatalf("round-trip: %+v, %v; want %+v", got, err, h)
	}
	for name, h := range map[string]segHeader{
		"records":           {records: math.MaxUint32 + 1},
		"checkpoint length": {ckptLen: math.MaxUint32 + 1},
		"negative records":  {records: -1},
	} {
		if b, err := appendSegHeader([]byte("x"), h); err == nil || string(b) != "x" {
			t.Errorf("%s out of range: %q, %v; want an error and the buffer untouched", name, b, err)
		}
	}

	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	defer a.Close()
	a.checkpoint = fixedCheckpoint("blob")
	appendN(t, a, 0, 3)
	a.walRecs = math.MaxUint32 + 1
	if err := a.Seal(); err == nil || !strings.Contains(err.Error(), "do not fit") {
		t.Fatalf("Seal with %d records counted: %v", a.walRecs, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != walName {
			t.Errorf("a seal that cannot build its header left %s behind", e.Name())
		}
	}
}
