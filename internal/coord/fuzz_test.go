package coord

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/tsstore"
)

// The seed corpus under testdata/fuzz holds well-formed frames,
// payloads and a checkpoint; the f.Add seeds below are their malformed
// neighbours.

// fuzzPush is a push with everything in it: points with and without
// error text, and a digest.
func fuzzPush() pushMsg {
	d := tsstore.NewDigest(8)
	d.Add(1e6)
	d.Add(3e6)
	blob, _ := d.MarshalBinary()
	return pushMsg{
		Seq: 7, Path: "p00", Total: 3, Errs: 1,
		Points: []tsstore.Point{
			{Round: 1, At: time.Second, Span: 2 * time.Second, Lo: 1e6, Hi: 2e6, Bits: 4e6},
			{Round: 2, At: 3 * time.Second, Err: "timeout"},
		},
		DigestBinary: blob,
	}
}

func fuzzLeases() LeaseSnapshot {
	return LeaseSnapshot{
		Clock:  time.Minute,
		Agents: []string{"a1", "a2"},
		Owners: []OwnerGroup{{Paths: []string{"p00", "p01"}, Owner: "a1"}, {Paths: []string{"p02"}, Owner: "a2"}},
	}
}

// FuzzReadFrame: arbitrary bytes on a control connection must read as
// a frame or an error — never panic, never allocate past maxFrame —
// and a frame that reads must re-encode to the bytes it came from.
func FuzzReadFrame(f *testing.F) {
	frame := func(t msgType, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, t, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(frame(msgHello, marshalHello(helloMsg{Min: 1, Max: 2, Name: "a1"})))
	f.Add(frame(msgBye, nil))
	f.Add(frame(msgPush, marshalPush(fuzzPush()))[:40])              // payload cut short
	f.Add([]byte{0x53, 0x4c, 0x43, 0x50, 5, 0xff, 0xff, 0xff, 0xff}) // length far past maxFrame
	f.Add([]byte("SLPS"))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > maxFrame || 9+len(payload) > len(data) {
			t.Fatalf("readFrame returned %d payload bytes from %d input bytes", len(payload), len(data))
		}
		var b bytes.Buffer
		if err := writeFrame(&b, typ, payload); err != nil {
			t.Fatalf("re-encoding a frame that just parsed: %v", err)
		}
		if !bytes.Equal(b.Bytes(), data[:9+len(payload)]) {
			t.Fatalf("frame not idempotent:\n got %x\nwant %x", b.Bytes(), data[:9+len(payload)])
		}
	})
}

// FuzzPayloads: the variable-length payload decoders — push, assign,
// lease snapshot — must reject malformed input with an error, never
// decode more elements than the bytes can describe, and round-trip
// what they accept. marshalPush truncates point error texts past
// maxErrLen; such a push must still reach a fixed point after one
// re-encode.
func FuzzPayloads(f *testing.F) {
	f.Add(marshalPush(fuzzPush()))
	f.Add(marshalPush(pushMsg{Path: "p"}))
	f.Add(marshalAssign(assignMsg{Seq: 9, Budget: 12e6, Leases: []Lease{{Path: "p00", Group: 0}, {Path: "p02", Group: 1}}}))
	f.Add(marshalLeaseSnapshot(fuzzLeases()))
	f.Add(marshalLeaseSnapshot(LeaseSnapshot{}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0xff, 0xff, 0xff, 0xff}) // a huge count and nothing behind it
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := unmarshalPush(data); err == nil {
			// A point is six u64 and a length-prefixed string.
			if 50*len(p.Points) > len(data) {
				t.Fatalf("%d-byte push decoded to %d points", len(data), len(p.Points))
			}
			re := marshalPush(p)
			truncated := false
			for _, pt := range p.Points {
				truncated = truncated || len(pt.Err) > maxErrLen
			}
			if !truncated && !bytes.Equal(re, data) {
				t.Fatalf("push round-trip mismatch for %x", data)
			}
			p2, err := unmarshalPush(re)
			if err != nil {
				t.Fatalf("re-encoded push does not decode: %v", err)
			}
			if !bytes.Equal(marshalPush(p2), re) {
				t.Fatalf("push does not reach a fixed point for %x", data)
			}
		}
		if a, err := unmarshalAssign(data); err == nil {
			if 6*len(a.Leases) > len(data) {
				t.Fatalf("%d-byte assign decoded to %d leases", len(data), len(a.Leases))
			}
			if !bytes.Equal(marshalAssign(a), data) {
				t.Fatalf("assign round-trip mismatch for %x", data)
			}
		}
		if s, err := unmarshalLeaseSnapshot(data); err == nil {
			if 2*len(s.Agents)+6*len(s.Owners) > len(data) {
				t.Fatalf("%d-byte snapshot decoded to %d agents, %d owners", len(data), len(s.Agents), len(s.Owners))
			}
			if !bytes.Equal(marshalLeaseSnapshot(s), data) {
				t.Fatalf("lease snapshot round-trip mismatch for %x", data)
			}
		}
	})
}

// FuzzLogCheckpoint: a corrupt coordinator checkpoint must decode to
// an error (OpenLog then replays the sealed records instead), never
// panic, and never to more contributions than its bytes can describe;
// whatever decodes must survive a re-encode unchanged.
func FuzzLogCheckpoint(f *testing.F) {
	l := &Log{
		contribs: map[string][]byte{"a1\x00p00": marshalPush(fuzzPush()), "a2\x00p02": marshalPush(pushMsg{Path: "p02"})},
		lease:    marshalLeaseSnapshot(fuzzLeases()),
	}
	f.Add(l.checkpoint())
	f.Add((&Log{}).checkpoint())
	f.Add(l.checkpoint()[:30])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got := &Log{contribs: map[string][]byte{}}
		if got.decodeCheckpoint(data) != nil {
			return
		}
		// A contribution entry is a length-prefixed key and blob.
		if 6*len(got.contribs) > len(data) {
			t.Fatalf("%d-byte checkpoint decoded to %d contributions", len(data), len(got.contribs))
		}
		re := got.checkpoint()
		again := &Log{contribs: map[string][]byte{}}
		if err := again.decodeCheckpoint(re); err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !bytes.Equal(again.checkpoint(), re) || !bytes.Equal(again.lease, got.lease) || len(again.contribs) != len(got.contribs) {
			t.Fatalf("checkpoint changed across a re-encode for %x", data)
		}
	})
}
