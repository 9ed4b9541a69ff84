package archive

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tsstore"
)

// TestReportStrings pins the operator-log renderings: every healing
// action and recovery anomaly must be visible in the line, never
// silent.
func TestReportStrings(t *testing.T) {
	r := OpenReport{Segments: 2, TailRecords: 3}
	if got := r.String(); got != "2 segments, 3 tail records" {
		t.Errorf("clean OpenReport = %q", got)
	}
	r.DroppedTailBytes = 7
	r.StaleWALRecords = 4
	r.HealedHead = true
	r.RemovedCheckpoints = 1
	s := r.String()
	for _, want := range []string{"dropped 7B torn tail", "discarded 4 already-sealed", "healed HEAD", "removed 1 unnamed checkpoint files"} {
		if !strings.Contains(s, want) {
			t.Errorf("OpenReport %q missing %q", s, want)
		}
	}

	sr := StoreReport{OpenReport: OpenReport{Segments: 1}, SealedRecords: 9, ForeignRecords: 2, CheckpointCorrupt: true}
	ss := sr.String()
	for _, want := range []string{"9 sealed records", "2 foreign records skipped", "checkpoint corrupt"} {
		if !strings.Contains(ss, want) {
			t.Errorf("StoreReport %q missing %q", ss, want)
		}
	}

	vr := &VerifyReport{
		Segments:      []SegmentVerify{{Index: 1, Records: 5, Bytes: 100}},
		SealedRecords: 5, WALRecords: 1, WALTornBytes: 3,
	}
	vs := vr.String()
	for _, want := range []string{"seg", "torn tail bytes", "OK: 5 sealed + 1 tail"} {
		if !strings.Contains(vs, want) {
			t.Errorf("clean VerifyReport %q missing %q", vs, want)
		}
	}
	vr.Problems = []string{"seg 1: bad hash"}
	if vs = vr.String(); !strings.Contains(vs, "FAIL: seg 1: bad hash") {
		t.Errorf("failing VerifyReport %q missing FAIL line", vs)
	}
}

// TestDecodeRecordHelpers exercises the cat-tool decoders: full
// roundtrips and the kind-mismatch and short-payload errors.
func TestDecodeRecordHelpers(t *testing.T) {
	dir := t.TempDir()
	st, backend, _, err := OpenStore(dir, Options{}, tsstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := backend.Archive().Dir(); got != dir {
		t.Errorf("Dir() = %q, want %q", got, dir)
	}
	// Append via the Backend interface directly: Observe would derive
	// the point and this test wants exact field control.
	if err := backend.AppendPoint("p00", tsstore.Point{Round: 3, At: time.Second, Span: time.Millisecond, Lo: 1e6, Hi: 2e6, Bits: 500, Err: "late"}); err != nil {
		t.Fatal(err)
	}
	if err := backend.AppendLink("hop", tsstore.LinkPoint{Round: 3, At: time.Second, Span: time.Second, Util: 0.25, Capacity: 10e6}); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := backend.Archive().ReplayTail(func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("tail holds %d records, want 2", len(recs))
	}

	path, p, err := DecodePointRecord(recs[0])
	if err != nil || path != "p00" {
		t.Fatalf("DecodePointRecord: %q, %v", path, err)
	}
	if p.Round != 3 || p.At != time.Second || p.Lo != 1e6 || p.Hi != 2e6 || p.Err != "late" {
		t.Errorf("point roundtrip = %+v", p)
	}
	link, lp, err := DecodeLinkRecord(recs[1])
	if err != nil || link != "hop" {
		t.Fatalf("DecodeLinkRecord: %q, %v", link, err)
	}
	if lp.Round != 3 || lp.Util != 0.25 || lp.Capacity != 10e6 {
		t.Errorf("link roundtrip = %+v", lp)
	}

	// Kind mismatches refuse to decode.
	if _, _, err := DecodePointRecord(recs[1]); err == nil {
		t.Error("DecodePointRecord accepted a link record")
	}
	if _, _, err := DecodeLinkRecord(recs[0]); err == nil {
		t.Error("DecodeLinkRecord accepted a point record")
	}
	// Truncated payloads error instead of inventing fields.
	for _, kind := range []uint8{KindPoint, KindPointCompact} {
		if _, _, err := DecodePointRecord(Record{Kind: kind, Key: "p", Data: []byte{1, 2}}); err == nil {
			t.Errorf("DecodePointRecord accepted a truncated kind 0x%02x payload", kind)
		}
	}
	if _, _, err := DecodeLinkRecord(Record{Kind: KindLink, Key: "l", Data: []byte{1}}); err == nil {
		t.Error("DecodeLinkRecord accepted a truncated payload")
	}
}
