package coord

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

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
	push := pushMsg{
		Seq:   3,
		Path:  "p00",
		Total: 9,
		Errs:  2,
		Points: []tsstore.Point{
			{Round: 0, At: 0, Span: time.Second, Lo: 3e6, Hi: 5e6, Bits: 1e5},
			{Round: 1, At: time.Second, Span: 2 * time.Second, Err: "transport lost"},
		},
	}
	blob, err := digest.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	push.DigestBinary = blob
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
		{msgPush, marshalPush(push)},
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
	gotPush, err := unmarshalPush(readOne(msgPush))
	if err != nil || !reflect.DeepEqual(gotPush, push) {
		t.Fatalf("push round-trip = %+v, %v; want %+v", gotPush, err, push)
	}
	c, err := pushToContribution(gotPush)
	if err != nil {
		t.Fatalf("pushToContribution: %v", err)
	}
	if c.Digest == nil || c.Digest.Count() != digest.Count() || c.Digest.Quantile(0.5) != digest.Quantile(0.5) {
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
	// A push whose digest blob is corrupt must fail conversion, not
	// poison the federation: a centroid count over budget, and the two
	// blobs tsstore.UnmarshalDigest used to let through — centroid
	// weights that wrap u64 to the stated count, and infinite means.
	for name, blob := range map[string][]byte{
		"over budget":      {0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 9},
		"weight sum wraps": mustHex(t, "00000040"+"0000000000000000"+"00000002"+"412e848000000000"+"8000000000000000"+"413e848000000000"+"8000000000000000"),
		"infinite means":   mustHex(t, "00000040"+"0000000000000002"+"00000002"+"fff0000000000000"+"0000000000000001"+"7ff0000000000000"+"0000000000000001"),
	} {
		if _, err := pushToContribution(pushMsg{Seq: 1, Path: "p", DigestBinary: blob}); err == nil {
			t.Errorf("push with a corrupt digest blob (%s) accepted", name)
		}
	}
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
		contribs: map[string][]byte{"a1\x00p00": marshalPush(fuzzPush()), "a2\x00p02": marshalPush(pushMsg{Path: "p02"})},
		lease:    marshalLeaseSnapshot(fuzzLeases()),
	}).checkpoint()
	for _, c := range []struct {
		name   string
		blob   []byte
		decode func([]byte) (any, error)
	}{
		{"hello", marshalHello(helloMsg{Min: 1, Max: 2, Name: "a1"}), func(b []byte) (any, error) { return unmarshalHello(b) }},
		{"hello-ack", marshalHelloAck(helloAckMsg{Version: 2, TTL: time.Second, Epoch: time.Minute}), func(b []byte) (any, error) { return unmarshalHelloAck(b) }},
		{"heartbeat", marshalHeartbeat(heartbeatMsg{Seq: 9}), func(b []byte) (any, error) { return unmarshalHeartbeat(b) }},
		{"assign", marshalAssign(assignMsg{Seq: 9, Budget: 12e6, Leases: []Lease{{Path: "p00"}, {Path: "p02", Group: 1}}}), func(b []byte) (any, error) { return unmarshalAssign(b) }},
		{"push", marshalPush(fuzzPush()), func(b []byte) (any, error) { return unmarshalPush(b) }},
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
// AppendBinary layout — the committed vector the archive's KindPoint
// record, which recovery still reads, is pinned to as well.
func TestPushPointLayout(t *testing.T) {
	raw, err := os.ReadFile("../tsstore/testdata/point.hex")
	if err != nil {
		t.Fatal(err)
	}
	want := mustHex(t, string(raw))
	r := wire.NewReader("point vector", want)
	pt := tsstore.ReadPoint(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	empty := marshalPush(pushMsg{Path: "p"})
	got := marshalPush(pushMsg{Path: "p", Points: []tsstore.Point{pt}})
	// Head: seq, path, total, errs, point count. Tail: digest length.
	head, tail := len(empty)-4, 4
	if !bytes.Equal(got[head:len(got)-tail], want) {
		t.Fatalf("point bytes in a push:\n got %x\nwant %x", got[head:len(got)-tail], want)
	}
	back, err := unmarshalPush(got)
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
		{1, 1, 1, true}, // legacy v1-only peer downgrades the session
		{1, 9, 2, true}, // newest common is our Version
		{2, 9, 2, true},
		{3, 9, 0, false},
		{0, 0, 0, false},
	}
	for _, c := range cases {
		got, err := Negotiate(c.min, c.max)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("Negotiate(%d, %d) = %d, %v; want %d, ok=%v", c.min, c.max, got, err, c.want, c.ok)
		}
	}
}
