package archive

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/tsstore"
)

// The seed corpus under testdata/fuzz holds the records, payloads and
// checkpoint of the committed mini fixture
// (cmd/pathload-archive/testdata/mini); the f.Add seeds below are the
// malformed neighbours.

// FuzzReadRecord: arbitrary bytes at the WAL cursor must read as a
// record, a torn tail or corruption — never panic, never consume more
// than is there — and a record that reads must re-frame to the bytes
// it came from.
func FuzzReadRecord(f *testing.F) {
	ok, _ := appendRecord(nil, Record{Kind: KindPoint, Key: "p0", Data: encodePoint(tsstore.Point{Round: 1, Lo: 1e6, Hi: 2e6})})
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
	})
}

// FuzzRecordPayloads: the point and link payload decoders must reject
// malformed payloads with an error and round-trip the ones they accept
// (encodePoint only truncates error texts past a u16, which no payload
// can carry).
func FuzzRecordPayloads(f *testing.F) {
	f.Add(encodePoint(tsstore.Point{Round: -1, At: 1, Span: 2, Lo: 3, Hi: 4, Bits: 5, Err: "timeout"}))
	f.Add(encodeLink(tsstore.LinkPoint{Round: 7, At: 1, Span: 2, Util: 0.5, Capacity: 1e7}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := decodePoint(data); err == nil {
			if !bytes.Equal(encodePoint(p), data) {
				t.Fatalf("point round-trip mismatch for %x", data)
			}
		}
		if p, err := decodeLink(data); err == nil {
			if !bytes.Equal(encodeLink(p), data) {
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

// FuzzDecodeCheckpoint: a corrupt store checkpoint must decode to an
// error (recovery then falls back to counted replay), never panic, and
// never to more series than its bytes can describe; one that decodes
// in canonical (sorted, duplicate-free) order must re-encode
// byte-for-byte.
func FuzzDecodeCheckpoint(f *testing.F) {
	t0 := &StoreBackend{
		paths: map[string]*shadowSeries{"p0": {total: 3, errs: 1, digest: tsstore.NewDigest(8)}},
		links: map[string]uint64{"core": 2},
	}
	t0.paths["p0"].digest.Add(1e6)
	t0.paths["p0"].digest.Add(2e6)
	f.Add(t0.checkpoint())
	f.Add((&StoreBackend{}).checkpoint())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil || ck == nil {
			return
		}
		// A path entry is at least 2+8+8+4+16 bytes, a link entry 2+8.
		if 38*len(ck.pathOrder)+10*len(ck.linkOrder) > len(data) {
			t.Fatalf("%d-byte checkpoint decoded to %d paths and %d links", len(data), len(ck.pathOrder), len(ck.linkOrder))
		}
		if !strictlyAscending(ck.pathOrder) || !strictlyAscending(ck.linkOrder) {
			return
		}
		re := &StoreBackend{paths: map[string]*shadowSeries{}, links: ck.links}
		for p, s := range ck.paths {
			re.paths[p] = &shadowSeries{total: s.total, errs: s.errs, digest: s.digest}
		}
		if !bytes.Equal(re.checkpoint(), data) {
			t.Fatalf("checkpoint round-trip mismatch:\n got %x\nwant %x", re.checkpoint(), data)
		}
	})
}
