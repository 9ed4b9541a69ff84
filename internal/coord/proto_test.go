package coord

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/tsstore"
	"repro/internal/wire"
)

// TestProtoRoundTrips: every control message must survive
// marshal → frame → unframe → unmarshal unchanged.
func TestProtoRoundTrips(t *testing.T) {
	hello := helloMsg{Min: 1, Max: 3, Name: "agent-α"}
	ack := helloAckMsg{Version: 2, TTL: 10 * time.Second, Epoch: 2 * time.Second}
	hb := heartbeatMsg{Seq: 42}
	asg := assignMsg{
		Seq:    7,
		Budget: 12e6,
		Leases: []Lease{{Path: "p00", Group: 0}, {Path: "p01", Group: 0}, {Path: "p04", Group: 2}},
	}
	digest := tsstore.NewDigest(8)
	for _, v := range []float64{1e6, 2e6, 4e6, 4e6, 8e6} {
		digest.Add(v)
	}
	push := tsstore.Contribution{
		Seq:    3,
		Total:  9,
		Errors: 2,
		Points: []tsstore.Point{
			{Round: 0, At: 0, Span: time.Second, Lo: 3e6, Hi: 5e6, Bits: 1e5},
			{Round: 1, At: time.Second, Span: 2 * time.Second, Err: "transport lost"},
		},
		Digest: digest,
	}
	pushAck := pushAckMsg{Seq: 3, Applied: true}

	var buf bytes.Buffer
	frames := []struct {
		t       msgType
		payload []byte
	}{
		{msgHello, marshalHello(hello)},
		{msgHelloAck, marshalHelloAck(ack)},
		{msgHeartbeat, marshalHeartbeat(hb)},
		{msgAssign, marshalAssign(asg)},
		{msgPush, marshalPush("p00", push)},
		{msgPushAck, marshalPushAck(pushAck)},
		{msgBye, nil},
	}
	for _, f := range frames {
		if err := writeFrame(&buf, f.t, f.payload); err != nil {
			t.Fatalf("writeFrame(%v): %v", f.t, err)
		}
	}

	readOne := func(want msgType) []byte {
		t.Helper()
		typ, payload, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if typ != want {
			t.Fatalf("readFrame type = %v, want %v", typ, want)
		}
		return payload
	}

	if got, err := unmarshalHello(readOne(msgHello)); err != nil || got != hello {
		t.Fatalf("hello round-trip = %+v, %v; want %+v", got, err, hello)
	}
	if got, err := unmarshalHelloAck(readOne(msgHelloAck)); err != nil || got != ack {
		t.Fatalf("hello-ack round-trip = %+v, %v; want %+v", got, err, ack)
	}
	if got, err := unmarshalHeartbeat(readOne(msgHeartbeat)); err != nil || got != hb {
		t.Fatalf("heartbeat round-trip = %+v, %v; want %+v", got, err, hb)
	}
	if got, err := unmarshalAssign(readOne(msgAssign)); err != nil || !reflect.DeepEqual(got, asg) {
		t.Fatalf("assign round-trip = %+v, %v; want %+v", got, err, asg)
	}
	path, c, err := unmarshalPush(readOne(msgPush))
	if err != nil || path != "p00" || !reflect.DeepEqual(c, push) {
		t.Fatalf("push round-trip = %q, %+v, %v; want p00, %+v", path, c, err, push)
	}
	if c.Digest.Count() != digest.Count() || c.Digest.Quantile(0.5) != digest.Quantile(0.5) {
		t.Fatalf("push digest did not survive: %+v", c.Digest)
	}
	if got, err := unmarshalPushAck(readOne(msgPushAck)); err != nil || got != pushAck {
		t.Fatalf("push-ack round-trip = %+v, %v; want %+v", got, err, pushAck)
	}
	readOne(msgBye)
}

// TestProtoRejectsGarbage: structurally broken frames and payloads must
// error, never panic or misparse.
func TestProtoRejectsGarbage(t *testing.T) {
	// Wrong magic.
	if _, _, err := readFrame(bytes.NewReader([]byte{0xde, 0xad, 0xbe, 0xef, 1, 0, 0, 0, 0})); err == nil {
		t.Fatalf("bad magic accepted")
	}
	// Oversized length prefix.
	over := []byte{0x53, 0x4c, 0x43, 0x50, 1, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := readFrame(bytes.NewReader(over)); err == nil {
		t.Fatalf("oversized frame accepted")
	}
	if _, err := unmarshalHello(marshalHello(helloMsg{Min: 5, Max: 1})); err == nil {
		t.Fatalf("inverted hello range accepted")
	}
	// A push whose digest blob is corrupt must fail to decode, not
	// poison the federation: a centroid count over budget, and the two
	// blobs tsstore.UnmarshalDigest used to let through — centroid
	// weights that wrap u64 to the stated count, and infinite means.
	for name, blob := range badDigests(t) {
		if _, _, err := unmarshalPush(pushWithDigest(1, "p", blob)); !errors.Is(err, errBadDigest) {
			t.Errorf("push with a corrupt digest blob (%s): err %v, want errBadDigest", name, err)
		}
	}
}

// badDigests are digest blobs, in the compact form a push carries,
// that tsstore.UnmarshalDigest refuses: budget, count and centroid
// count as uvarints, then each centroid's mean as float64 bits and its
// weight as a uvarint (2^63 takes ten bytes).
func badDigests(t *testing.T) map[string][]byte {
	return map[string][]byte{
		"over budget":      {1, 5, 9},
		"weight sum wraps": mustHex(t, "40"+"00"+"02"+"412e848000000000"+"80808080808080808001"+"413e848000000000"+"80808080808080808001"),
		"infinite means":   mustHex(t, "40"+"02"+"02"+"fff0000000000000"+"01"+"7ff0000000000000"+"01"),
	}
}

// pushWithDigest is the payload of a pointless push whose digest
// field holds blob, valid or not.
func pushWithDigest(seq uint64, path string, blob []byte) []byte {
	b := marshalPush(path, tsstore.Contribution{Seq: seq, Total: 1})
	b = binary.BigEndian.AppendUint32(b[:len(b)-4], uint32(len(blob)))
	return append(b, blob...)
}

// TestBadDigestPushAckedUnapplied: a push whose payload decodes but
// whose digest tsstore refuses is answered with an unapplied ack and
// federates nothing, and the session goes on — its next heartbeat is
// answered.
func TestBadDigestPushAckedUnapplied(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{Now: func() time.Duration { return 0 }})
	conn, ft, _ := sendHello(t, addr, "a1", VersionMin, Version)
	defer conn.Close()
	if ft != msgHelloAck {
		t.Fatalf("register: got %v", ft)
	}
	seq := uint64(0)
	for name, blob := range badDigests(t) {
		seq++
		if err := writeFrame(conn, msgPush, pushWithDigest(seq, "p00", blob)); err != nil {
			t.Fatalf("%s: push: %v", name, err)
		}
		ft, payload, err := readFrame(conn)
		if err != nil || ft != msgPushAck {
			t.Fatalf("%s: push answer = %v, %v", name, ft, err)
		}
		if ack, err := unmarshalPushAck(payload); err != nil || ack != (pushAckMsg{Seq: seq}) {
			t.Fatalf("%s: push-ack = %+v, %v; want seq %d unapplied", name, ack, err, seq)
		}
	}
	if paths := srv.Federation().Paths(); len(paths) != 0 {
		t.Fatalf("refused pushes federated paths %v", paths)
	}
	if err := writeFrame(conn, msgHeartbeat, marshalHeartbeat(heartbeatMsg{Seq: 9})); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	ft, payload, err := readFrame(conn)
	if err != nil || ft != msgAssign {
		t.Fatalf("heartbeat answer = %v, %v; want assign", ft, err)
	}
	if asg, err := unmarshalAssign(payload); err != nil || asg.Seq != 9 {
		t.Fatalf("assign = %+v, %v", asg, err)
	}
}

// TestUnconfiguredPushAckedUnapplied: a push for a path outside
// Coord.Paths is answered like one with a bad digest — an unapplied
// ack, nothing federated — so one agent cannot grow the scrape surface
// by naming paths, and its session goes on.
func TestUnconfiguredPushAckedUnapplied(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{Now: func() time.Duration { return 0 }})
	conn, ft, _ := sendHello(t, addr, "a1", VersionMin, Version)
	defer conn.Close()
	if ft != msgHelloAck {
		t.Fatalf("register: got %v", ft)
	}
	const names = 500
	for seq := uint64(0); seq <= names; seq++ {
		path := "p00" // configured: applied
		if seq > 0 {
			path = fmt.Sprintf("x%03d", seq)
		}
		if err := writeFrame(conn, msgPush, marshalPush(path, tsstore.Contribution{Seq: seq, Total: 1})); err != nil {
			t.Fatalf("push %s: %v", path, err)
		}
		ft, payload, err := readFrame(conn)
		if err != nil || ft != msgPushAck {
			t.Fatalf("push %s: answer = %v, %v", path, ft, err)
		}
		if ack, err := unmarshalPushAck(payload); err != nil || ack != (pushAckMsg{Seq: seq, Applied: seq == 0}) {
			t.Fatalf("push %s: ack = %+v, %v; want seq %d applied %v", path, ack, err, seq, seq == 0)
		}
	}
	if paths := srv.Federation().Paths(); !reflect.DeepEqual(paths, []string{"p00"}) {
		t.Fatalf("after %d unconfigured pushes the federation holds %d paths, want [p00]", names, len(paths))
	}
	if err := writeFrame(conn, msgHeartbeat, marshalHeartbeat(heartbeatMsg{Seq: 9})); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if ft, payload, err := readFrame(conn); err != nil || ft != msgAssign {
		t.Fatalf("heartbeat answer = %v, %v; want assign", ft, err)
	} else if asg, err := unmarshalAssign(payload); err != nil || asg.Seq != 9 {
		t.Fatalf("assign = %+v, %v", asg, err)
	}
}

// TestPushErrCutAtRuneBoundary: a point's error text past maxErrLen is
// cut at a rune boundary — here a 2-byte rune straddles byte 256 — so
// what the coordinator federates and archives stays valid UTF-8.
func TestPushErrCutAtRuneBoundary(t *testing.T) {
	long := strings.Repeat("x", maxErrLen-1) + "é" + strings.Repeat("y", 10)
	if long[maxErrLen-1:maxErrLen+1] != "é" {
		t.Fatal("the rune does not straddle the limit")
	}
	c := tsstore.Contribution{Points: []tsstore.Point{{Err: long}}}
	_, back, err := unmarshalPush(marshalPush("p", c))
	if err != nil {
		t.Fatal(err)
	}
	got := back.Points[0].Err
	if !utf8.ValidString(got) || len(got) > maxErrLen || got != long[:maxErrLen-1] {
		t.Fatalf("cut error text: %d bytes, valid UTF-8 %v", len(got), utf8.ValidString(got))
	}
}

// TestPushBytesUnchanged: the encoder reproduces the committed push
// seeds byte for byte, so neither the wire form of a push nor the
// durable form a Log stores can move unnoticed.
func TestPushBytesUnchanged(t *testing.T) {
	var frame bytes.Buffer
	payload := marshalPush("p00", fuzzPush())
	if err := writeFrame(&frame, msgPush, payload); err != nil {
		t.Fatal(err)
	}
	for file, want := range map[string][]byte{
		"testdata/fuzz/FuzzPayloads/seed-push":        payload,
		"testdata/fuzz/FuzzReadFrame/seed-push-frame": frame.Bytes(),
	} {
		if got := readSeed(t, file); !bytes.Equal(got, want) {
			t.Errorf("%s:\n seed %x\n  now %x", file, got, want)
		}
	}
}

// readSeed reads a one-value []byte fuzz corpus file.
func readSeed(t *testing.T, file string) []byte {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a []byte corpus entry", file)
	}
	b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return []byte(b)
}

// TestPushReceiveAllocationBudget: the coordinator's receive path —
// decode a 32-point push with a full digest, then Federation.Push it to
// a slot holding a push of the same shape — allocates the path string,
// the points, the digest and its centroids once each and nothing else.
// Run without -race, which changes object counts.
func TestPushReceiveAllocationBudget(t *testing.T) {
	payload := marshalPush("p00", fullPush())
	fed := tsstore.NewFederation(tsstore.Config{Capacity: 32})
	seq := uint64(0)
	receive := func() {
		seq++
		binary.BigEndian.PutUint64(payload, seq) // Seq leads the payload
		path, c, err := unmarshalPush(payload)
		if err != nil || !fed.Push("a1", path, c) {
			t.Fatalf("push %d not applied: %v", seq, err)
		}
	}
	receive() // the slot's first push allocates its buffers
	if allocs := testing.AllocsPerRun(100, receive); allocs > 4 {
		t.Fatalf("decode + Push of a %d-byte push allocates %v objects, want <= 4", len(payload), allocs)
	}
}

// TestPushEncodeAllocationBudget: encoding a 32-point push with a full
// digest allocates its one buffer, sized before the first byte is
// written, and nothing else. Run without -race, which changes object
// counts.
func TestPushEncodeAllocationBudget(t *testing.T) {
	c := fullPush()
	var payload []byte
	if allocs := testing.AllocsPerRun(100, func() { payload = marshalPush("p00", c) }); allocs != 1 {
		t.Fatalf("encoding a %d-byte push allocates %v objects, want 1", len(payload), allocs)
	}
}

// fullPush is a 32-point contribution whose digest holds 400 samples.
func fullPush() tsstore.Contribution {
	c := tsstore.Contribution{Total: 400, Digest: tsstore.NewDigest(0)}
	for r := range 32 {
		c.Points = append(c.Points, tsstore.Point{Round: 368 + r, At: time.Duration(r) * time.Second,
			Span: time.Second, Lo: 1e6 + float64(r)*1e4, Hi: 2e6 + float64(r)*1e4, Bits: 1e5})
	}
	for i := range 400 {
		c.Digest.Add(1e6 + float64(i*7919%1000)*1e3)
	}
	return c
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.TrimSpace(s))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodersRejectEveryPrefix: each variable-length decoder — the
// SLCP payloads, the lease snapshot, the coordinator checkpoint — turns
// every strict prefix of a valid blob, and the blob with one byte
// appended, into an error and a zero value: never a panic, never a
// message filled in as far as the bytes went.
func TestDecodersRejectEveryPrefix(t *testing.T) {
	ckpt := (&Log{
		contribs: map[string][]byte{"a1\x00p00": marshalPush("p00", fuzzPush()), "a2\x00p02": marshalPush("p02", tsstore.Contribution{})},
		lease:    marshalLeaseSnapshot(fuzzLeases()),
	}).checkpoint(nil)
	for _, c := range []struct {
		name   string
		blob   []byte
		decode func([]byte) (any, error)
	}{
		{"hello", marshalHello(helloMsg{Min: 1, Max: 2, Name: "a1"}), func(b []byte) (any, error) { return unmarshalHello(b) }},
		{"hello-ack", marshalHelloAck(helloAckMsg{Version: 2, TTL: time.Second, Epoch: time.Minute}), func(b []byte) (any, error) { return unmarshalHelloAck(b) }},
		{"heartbeat", marshalHeartbeat(heartbeatMsg{Seq: 9}), func(b []byte) (any, error) { return unmarshalHeartbeat(b) }},
		{"assign", marshalAssign(assignMsg{Seq: 9, Budget: 12e6, Leases: []Lease{{Path: "p00"}, {Path: "p02", Group: 1}}}), func(b []byte) (any, error) { return unmarshalAssign(b) }},
		{"push", marshalPush("p00", fuzzPush()), func(b []byte) (any, error) {
			path, c, err := unmarshalPush(b)
			if path == "" && c.Seq == 0 && c.Points == nil && c.Digest == nil {
				return nil, err
			}
			return struct {
				path string
				c    tsstore.Contribution
			}{path, c}, err
		}},
		{"push-ack", marshalPushAck(pushAckMsg{Seq: 3, Applied: true}), func(b []byte) (any, error) { return unmarshalPushAck(b) }},
		{"challenge", marshalChallenge(bytes.Repeat([]byte{7}, nonceLen)), func(b []byte) (any, error) { return unmarshalChallenge(b) }},
		{"auth", marshalAuth(authMAC("s", []byte("n"), "a1")), func(b []byte) (any, error) { return unmarshalAuth(b) }},
		{"error", marshalError(errorMsg{Version: 2, Code: errCodeAuth, Text: "no"}), func(b []byte) (any, error) { return unmarshalError(b) }},
		{"lease snapshot", marshalLeaseSnapshot(fuzzLeases()), func(b []byte) (any, error) { return unmarshalLeaseSnapshot(b) }},
		{"checkpoint", ckpt, func(b []byte) (any, error) {
			l := Log{contribs: map[string][]byte{}}
			err := l.decodeCheckpoint(b)
			if len(l.contribs) == 0 && l.lease == nil {
				return nil, err
			}
			return l, err
		}},
	} {
		if v, err := c.decode(c.blob); err != nil || v == nil || reflect.ValueOf(v).IsZero() {
			t.Errorf("%s: the whole blob decoded to %+v, %v", c.name, v, err)
		}
		for n := 0; n <= len(c.blob); n++ {
			in := c.blob[:n]
			if n == len(c.blob) {
				in = append(append([]byte(nil), c.blob...), 0)
			}
			if v, err := c.decode(in); err == nil || (v != nil && !reflect.ValueOf(v).IsZero()) {
				t.Errorf("%s: %d of %d bytes decoded to %+v, err %v", c.name, len(in), len(c.blob), v, err)
			}
		}
	}
}

// TestPushPointLayout: the point inside a push is tsstore.Point's
// AppendCompact form — the committed vector the archive's point record
// is pinned to as well.
func TestPushPointLayout(t *testing.T) {
	raw, err := os.ReadFile("../tsstore/testdata/point_compact.hex")
	if err != nil {
		t.Fatal(err)
	}
	want := mustHex(t, string(raw))
	r := wire.NewReader("point vector", want)
	pt := tsstore.ReadCompactPoint(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	empty := marshalPush("p", tsstore.Contribution{})
	got := marshalPush("p", tsstore.Contribution{Points: []tsstore.Point{pt}})
	// Head: seq, path, total, errs, point count. Tail: digest length.
	head, tail := len(empty)-4, 4
	if !bytes.Equal(got[head:len(got)-tail], want) {
		t.Fatalf("point bytes in a push:\n got %x\nwant %x", got[head:len(got)-tail], want)
	}
	_, back, err := unmarshalPush(got)
	if err != nil || len(back.Points) != 1 || back.Points[0] != pt {
		t.Fatalf("push round trip: %+v, %v", back.Points, err)
	}
}

// TestNegotiate mirrors the wire package's rule on the control plane.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		min, max uint16
		want     uint16
		ok       bool
	}{
		{1, 1, 0, false}, // a v1-only peer is refused
		{2, 2, 0, false}, // and so is a v2-only one
		{1, 9, 3, true},  // newest common is our Version
		{3, 9, 3, true},
		{4, 9, 0, false},
		{0, 0, 0, false},
	}
	for _, c := range cases {
		got, err := Negotiate(c.min, c.max)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("Negotiate(%d, %d) = %d, %v; want %d, ok=%v", c.min, c.max, got, err, c.want, c.ok)
		}
	}
}
