package archive

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/tsstore"
)

// The seed corpus under testdata/fuzz holds the records, payloads,
// checkpoint and segments of the committed mini fixture
// (cmd/pathload-archive/testdata/mini); the f.Add seeds below are the
// malformed neighbours.

// appendRecord appends r's frame to buf, as Archive.Append frames it.
func appendRecord(buf []byte, r Record) ([]byte, error) {
	return appendFrame(buf, r.Kind, r.Key, func(b []byte) []byte { return append(b, r.Data...) })
}

// readRecord is the reference rule for one frame, over an in-memory
// image of the record region: it decodes the record at the head of b,
// returning it and the number of bytes consumed. errShortRecord means b
// ends mid-record; errCorruptRecord means the bytes are not a record at
// all. The archive reads files with recordReader instead, which
// FuzzReadRecord holds to this rule.
func readRecord(b []byte) (Record, int, error) {
	if len(b) < 8 {
		return Record{}, 0, errShortRecord
	}
	if b[0] != recMagic {
		return Record{}, 0, errCorruptRecord
	}
	keyLen := int(binary.BigEndian.Uint16(b[2:4]))
	dataLen := int(binary.BigEndian.Uint32(b[4:8]))
	if dataLen > MaxData {
		return Record{}, 0, errCorruptRecord
	}
	total := 8 + keyLen + dataLen + 4
	if len(b) < total {
		return Record{}, 0, errShortRecord
	}
	sum := binary.BigEndian.Uint32(b[total-4 : total])
	if crc32.ChecksumIEEE(b[:total-4]) != sum {
		return Record{}, 0, errCorruptRecord
	}
	r := Record{
		Kind: b[1],
		Key:  string(b[8 : 8+keyLen]),
		Data: append([]byte(nil), b[8+keyLen:total-4]...),
	}
	return r, total, nil
}

// scanRecords is the reference scan: it walks every whole record in b,
// calling fn for each, and returns the byte offset of the first defect
// (== len(b) on a clean scan), the number of records delivered, and the
// defect itself.
func scanRecords(b []byte, fn func(Record) error) (consumed, n int, err error) {
	off := 0
	for off < len(b) {
		rec, sz, err := readRecord(b[off:])
		if err != nil {
			return off, n, err
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return off, n, err
			}
		}
		off += sz
		n++
	}
	return off, n, nil
}

// streamRecords reads b as a record region through the streaming
// reader, over the smallest buffer bufio allows, so frames straddle
// its refills. It returns the records (their Data copied out of the
// reader's buffer), the bytes of whole records consumed, and the
// defect that stopped the scan.
func streamRecords(b []byte) (recs []Record, consumed int, err error) {
	rr := recordReader{r: bufio.NewReaderSize(bytes.NewReader(b), 16), left: int64(len(b))}
	err = rr.each(func(r Record) error { recs = append(recs, kept(r)); return nil })
	return recs, int(rr.off), err
}

// FuzzReadRecord: arbitrary bytes at the WAL cursor must read as a
// record, a torn tail or corruption — never panic, never consume more
// than is there — and a record that reads must re-frame to the bytes
// it came from. The streaming reader must make of the same bytes
// exactly what the in-memory reference makes of them: the same
// records, the same consumed offset, the same defect.
func FuzzReadRecord(f *testing.F) {
	ok, _ := appendRecord(nil, Record{Kind: KindPointCompact, Key: "p0", Data: tsstore.Point{Round: 1, Lo: 1e6, Hi: 2e6}.AppendCompact(nil)})
	f.Add(ok)
	f.Add(ok[:len(ok)-1])                                // torn tail
	f.Add(append(append([]byte(nil), ok...), ok[:5]...)) // whole record, then a torn one
	f.Add([]byte{recMagic, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := readRecord(data)
		if err != nil {
			if !errors.Is(err, errShortRecord) && !errors.Is(err, errCorruptRecord) {
				t.Fatalf("readRecord error is neither short nor corrupt: %v", err)
			}
			if n != 0 {
				t.Fatalf("failed readRecord consumed %d bytes", n)
			}
		} else {
			if n > len(data) || n != recOverhead+len(rec.Key)+len(rec.Data) {
				t.Fatalf("readRecord consumed %d of %d bytes for key %d + data %d", n, len(data), len(rec.Key), len(rec.Data))
			}
			re, err := appendRecord(nil, rec)
			if err != nil {
				t.Fatalf("re-framing a record that just read: %v", err)
			}
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("record not idempotent:\n got %x\nwant %x", re, data[:n])
			}
		}
		// The scan agrees with the single read and stops inside the buffer.
		consumed, count, serr := scanRecords(data, nil)
		if consumed > len(data) || (serr == nil) != (consumed == len(data)) {
			t.Fatalf("scanRecords consumed %d of %d bytes with err %v", consumed, len(data), serr)
		}
		if (err == nil) != (count > 0) && len(data) > 0 {
			t.Fatalf("readRecord err %v but scanRecords delivered %d records", err, count)
		}

		var want []Record
		scanRecords(data, func(r Record) error { want = append(want, r); return nil })
		got, gotConsumed, gerr := streamRecords(data)
		if gotConsumed != consumed || gerr != serr {
			t.Fatalf("streaming reader consumed %d bytes with err %v; reference %d with %v", gotConsumed, gerr, consumed, serr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("streaming reader read %d records, reference %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
		}
	})
}

// FuzzRecordPayloads: the payload decoders of every record kind must
// reject malformed payloads with an error, and must round-trip the
// payloads they accept (AppendCompact only truncates error texts past
// 65 535 bytes, which no payload that decodes can carry). The store's
// checkpoint shadow (pointOutcome) must accept exactly what decodePoint
// accepts and read the same range center and outcome. The committed
// seeds are the mini fixture's KindPointCompact and KindLink payloads.
func FuzzRecordPayloads(f *testing.F) {
	p := tsstore.Point{Round: -1, At: 1, Span: 2, Lo: 3, Hi: 4, Bits: 5, Err: "timeout"}
	f.Add(p.AppendCompact(nil))
	f.Add(tsstore.Point{Round: 1 << 40, At: -time.Second, Lo: 1e6, Hi: 2e6}.AppendCompact(nil))
	f.Add(appendLink(nil, tsstore.LinkPoint{Round: 7, At: 1, Span: 2, Util: 0.5, Capacity: 1e7}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePoint(data)
		mid, ok, oerr := pointOutcome(data)
		if (err == nil) != (oerr == nil) || err == nil && (math.Float64bits(mid) != math.Float64bits(p.Mid()) || ok != p.OK()) {
			t.Fatalf("the shadow reads %x as (%v, %v, %v), decodePoint as (%+v, %v)", data, mid, ok, oerr, p, err)
		}
		if err == nil && !bytes.Equal(p.AppendCompact(nil), data) {
			t.Fatalf("point round-trip mismatch for %x", data)
		}
		if p, err := decodeLink(data); err == nil {
			if !bytes.Equal(appendLink(nil, p), data) {
				t.Fatalf("link round-trip mismatch for %x", data)
			}
		}
	})
}

// strictlyAscending reports whether keys are in the order the
// checkpoint encoder writes: sorted, no duplicates.
func strictlyAscending(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return false
		}
	}
	return true
}

// FuzzDecodeCheckpoint: a corrupt store checkpoint body must decode to
// an error (recovery then falls back to counted replay), never panic,
// and never to more series than its bytes can describe. A body that
// decodes in canonical (sorted, duplicate-free) order must re-encode
// byte-for-byte. The committed seed is the mini fixture's checkpoint
// less its six-byte envelope, which Recover judges before Seed.
func FuzzDecodeCheckpoint(f *testing.F) {
	t0 := &StoreBackend{
		paths: map[string]*shadowSeries{"p0": {total: 3, errs: 1, digest: tsstore.NewDigest(8)}},
		links: map[string]uint64{"core": 2},
	}
	t0.paths["p0"].digest.Add(1e6)
	t0.paths["p0"].digest.Add(2e6)
	f.Add(t0.checkpoint(nil))
	f.Add((&StoreBackend{}).checkpoint(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil || ck == nil {
			return
		}
		// The least bytes an entry can take: a path is 1+1+1+3 (key
		// length, total, errs and a digest with no centroid, each a
		// one-byte varint), a link 1+1.
		if 6*len(ck.pathOrder)+2*len(ck.linkOrder) > len(data) {
			t.Fatalf("%d-byte checkpoint decoded to %d paths and %d links", len(data), len(ck.pathOrder), len(ck.linkOrder))
		}
		if !strictlyAscending(ck.pathOrder) || !strictlyAscending(ck.linkOrder) {
			return
		}
		re := &StoreBackend{paths: map[string]*shadowSeries{}, links: ck.links}
		for p, s := range ck.paths {
			re.paths[p] = &shadowSeries{total: s.total, errs: s.errs, digest: s.digest}
		}
		if !bytes.Equal(re.checkpoint(nil), data) {
			t.Fatalf("checkpoint round-trip mismatch:\n got %x\nwant %x", re.checkpoint(nil), data)
		}
	})
}

// FuzzScanSegment: arbitrary bytes in a segment file must scan to a
// segment or an error — never panic, never read a record region past
// the file. A header that parses must re-encode to the bytes it came
// from, so no header of another version parses; a file that scans must
// hash whole, and its header and records must account for every byte.
// The committed seeds are the mini fixture's segments and a segment
// sealed onto a copy of it; the f.Add seeds include a version 1 header,
// which must be refused.
func FuzzScanSegment(f *testing.F) {
	hdr, _ := appendSegHeader(nil, segHeader{index: 3, sealedUnix: 1700000100, records: 1, ckptLen: 9})
	frame, _ := appendRecord(nil, rec(0))
	f.Add(append(hdr, frame...))
	f.Add(hdr[:segHdrLen-1]) // torn header
	// A version 1 header: no checkpoint hash, the checkpoint inline.
	v1 := append([]byte(nil), hdr[:segHdrLen-sha256.Size]...)
	binary.BigEndian.PutUint16(v1[4:6], 1)
	f.Add(append(append(v1, 'c', 'k'), frame...))
	f.Add(v1[:6])
	f.Add([]byte{})
	dir := f.TempDir()
	path := filepath.Join(dir, "seg")
	f.Fuzz(func(t *testing.T, data []byte) {
		h, perr := parseSegHeader(data)
		if perr == nil {
			re, err := appendSegHeader(nil, h)
			if err != nil || len(data) < segHdrLen || !bytes.Equal(re, data[:segHdrLen]) {
				t.Fatalf("header round-trip: %v\n got %x\nwant %x", err, re, data[:min(len(data), segHdrLen)])
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var records int64
		info, sh, err := scanSegment(path, 0, true, nil, func(r Record) error {
			records += int64(recOverhead + len(r.Key) + len(r.Data))
			return nil
		})
		if err != nil {
			return
		}
		if perr != nil || sh != h {
			t.Fatalf("scanSegment read header %+v where parseSegHeader read %+v, %v", sh, h, perr)
		}
		if info.Bytes != int64(len(data)) || segHdrLen+records != info.Bytes || info.Hash != sha256.Sum256(data) {
			t.Fatalf("%d-byte file scanned as %d bytes: header %d + records %d, hash %x",
				len(data), info.Bytes, segHdrLen, records, info.Hash)
		}
	})
}

// FuzzOpenVerifyAgree: Open and Verify judge a directory by one set of
// rules. A small archive — two seals and a WAL tail, or one whose first
// or second seal crashed at any failpoint — takes one mutation: a
// flipped bit, a truncated or deleted file, or HEAD rewritten to
// another index or hash. Verify must pass exactly when Open succeeds on
// a copy, and the directory a successful Open leaves must verify.
// Verify changes nothing, and neither does an Open that refuses.
func FuzzOpenVerifyAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, crash, stage, op, file uint8, at uint16) {
		dir := t.TempDir()
		a, _ := openT(t, dir, Options{})
		seals := 0
		a.checkpoint = func(b []byte) []byte { seals++; return fmt.Appendf(b, "checkpoint %d", seals) }
		crashed := int(crash % 3) // the seal that crashes; 0 for none
		for s := 1; s <= 2; s++ {
			appendN(t, a, 3*s, 3)
			if s == crashed {
				a.failpoint = crashAt(sealStages[int(stage)%len(sealStages)])
				if err := a.Seal(); !errors.Is(err, errCrash) {
					t.Fatalf("failpoint not hit: %v", err)
				}
				break
			}
			if err := a.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if crashed == 0 {
			appendN(t, a, 9, 2)
		}
		a.Close()

		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, ents[int(file)%len(ents)].Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		headPath := filepath.Join(dir, headName)
		idx, hash, _, _ := readHead(dir)
		switch op % 6 {
		case 1:
			if len(b) > 0 {
				b[int(at/8)%len(b)] ^= 1 << (at % 8)
				err = os.WriteFile(path, b, 0o644)
			}
		case 2:
			if len(b) > 0 {
				err = os.Truncate(path, int64(at)%int64(len(b)))
			}
		case 3:
			err = os.Remove(path)
		case 4:
			err = os.WriteFile(headPath, fmt.Appendf(nil, "%s%d %x\n", headPrefix, at%4, hash), 0o644)
		case 5:
			hash[at%sha256.Size] ^= 1
			err = os.WriteFile(headPath, fmt.Appendf(nil, "%s%d %x\n", headPrefix, idx, hash), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}

		cp := copyArchive(t, dir)
		before := dirImage(t, dir)
		rep, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatal("Verify changed the directory")
		}
		re, orep, oerr := Open(cp, Options{})
		if rep.OK() != (oerr == nil) {
			t.Fatalf("Verify problems %q, but Open: %v", rep.Problems, oerr)
		}
		if oerr != nil {
			if after := dirImage(t, cp); !reflect.DeepEqual(after, before) {
				t.Fatalf("Open refused (%v) but changed the directory", oerr)
			}
			return
		}
		re.Close()
		if rep, err := Verify(cp); err != nil || !rep.OK() {
			t.Fatalf("after Open (%v): Verify %v %q", orep, err, rep.Problems)
		}
	})
}

// dirImage maps each file in dir to its contents.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = string(b)
	}
	return img
}
