package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	pathload "repro"
	"repro/internal/tsstore"
	"repro/internal/wire"
)

// sample fabricates a deterministic monitor sample for path/round.
func sample(path string, round int) pathload.Sample {
	s := pathload.Sample{
		Path:  path,
		Round: round,
		At:    time.Duration(round) * 100 * time.Millisecond,
		Wall:  time.Unix(int64(round), 0), // no stored point keeps it
	}
	if round%7 == 3 {
		s.Err = errors.New("stream loss")
		s.Result = pathload.Result{Elapsed: 40 * time.Millisecond, Bits: 5e5}
		return s
	}
	s.Result = pathload.Result{
		Lo:      40e6 + float64(round)*1e5,
		Hi:      48e6 + float64(round)*1e5,
		Elapsed: 60 * time.Millisecond,
		Bits:    1e6,
	}
	return s
}

// feed pushes rounds [from, to) for each path into st, plus one link
// window per round.
func feed(st *tsstore.Store, paths []string, from, to int) {
	for r := from; r < to; r++ {
		for _, p := range paths {
			st.Observe(sample(p, r))
		}
		st.ObserveLink("core-link", r, time.Duration(r)*100*time.Millisecond, 100*time.Millisecond, 0.5, 100e6)
	}
}

// prom renders the store's Prometheus exposition — the deterministic
// whole-store view used to compare recovered and control stores.
func prom(t *testing.T, st *tsstore.Store) string {
	t.Helper()
	var b bytes.Buffer
	if err := st.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// openStoreT wraps OpenStore with a scripted clock.
func openStoreT(t *testing.T, dir string, opt Options, cfg tsstore.Config) (*tsstore.Store, *StoreBackend, StoreReport) {
	t.Helper()
	if opt.NowUnix == nil {
		clock := int64(2000)
		opt.NowUnix = func() int64 { clock++; return clock }
	}
	st, be, rep, err := OpenStore(dir, opt, cfg)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", dir, err)
	}
	return st, be, rep
}

var testPaths = []string{"path-00", "path-01"}

// TestOpenStoreRoundtrip pins the core recovery contract: a store
// rebuilt from its archive renders byte-identically to a control store
// fed the same samples live, point for point.
func TestOpenStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, be, rep := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 64})
	if rep.Segments != 0 || rep.TailRecords != 0 {
		t.Fatalf("fresh archive report: %+v", rep)
	}
	feed(st, testPaths, 0, 10)
	if err := be.Archive().Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	feed(st, testPaths, 10, 15) // tail records past the checkpoint
	if n, err := st.BackendErrs(); n != 0 {
		t.Fatalf("backend errors: %d %v", n, err)
	}
	want := prom(t, st)
	wantSnap := st.Snapshot("path-00")
	be.Close()

	// Control: the same samples into a plain in-memory store.
	control := tsstore.New(tsstore.Config{Capacity: 64})
	feed(control, testPaths, 0, 15)
	if got := prom(t, control); got != want {
		t.Fatalf("control store renders differently from original:\n%s\nvs\n%s", got, want)
	}

	re, be2, rep2 := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 64})
	defer be2.Close()
	if rep2.SealedRecords != 10*len(testPaths)+10 || rep2.TailRecords != 5*len(testPaths)+5 {
		t.Fatalf("recovery report: %+v", rep2)
	}
	if rep2.CheckpointCorrupt {
		t.Fatalf("checkpoint misreported corrupt: %+v", rep2)
	}
	if got := prom(t, re); got != want {
		t.Fatalf("recovered store renders differently:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if gotSnap := re.Snapshot("path-00"); !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Fatalf("points: got %+v want %+v", gotSnap, wantSnap)
	}
	// Digest state survives exactly: same quantiles.
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if g, w := re.Quantile("path-01", q), st.Quantile("path-01", q); g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("quantile %.1f: got %g want %g", q, g, w)
		}
	}
	// Link series survive.
	if got := re.LinkTotal("core-link"); got != 15 {
		t.Fatalf("link total = %d, want 15", got)
	}
	if !reflect.DeepEqual(re.LinkSnapshot("core-link"), st.LinkSnapshot("core-link")) {
		t.Fatal("link snapshot differs after recovery")
	}
	// Resume state: the next round continues, not rewinds.
	if st := re.Resume("path-00"); st.Round != 15 || st.At <= 0 {
		t.Fatalf("Resume = %+v, want round 15", st)
	}
}

// TestOpenStoreOversizedError: one failed round whose error text
// overflows the record's u16 length field must not brick restart
// recovery — the text is truncated at encode time, so the archive
// reopens and the round is still there, marked failed.
func TestOpenStoreOversizedError(t *testing.T) {
	dir := t.TempDir()
	st, be, _ := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 8})
	long := strings.Repeat("x", 70_000)
	st.Observe(pathload.Sample{Path: "path-00", Round: 0, Err: errors.New(long)})
	st.Observe(sample("path-00", 1))
	if n, err := st.BackendErrs(); n != 0 {
		t.Fatalf("backend errors: %d %v", n, err)
	}
	if err := be.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, be2, rep := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 8})
	defer be2.Close()
	if got := rep.SealedRecords + rep.TailRecords; got != 2 {
		t.Fatalf("recovered %d records, want 2: %+v", got, rep)
	}
	snap := re.Snapshot("path-00")
	if len(snap) != 2 || snap[0].Err != long[:math.MaxUint16] || snap[1].Err != "" {
		t.Fatalf("recovered %d points, first error %d bytes; want 2 points, error truncated to %d bytes",
			len(snap), len(snap[0].Err), math.MaxUint16)
	}
}

// TestOpenStoreRingEviction pins that recovery honors ring capacity:
// totals and digests cover all records, the ring only the newest.
func TestOpenStoreRingEviction(t *testing.T) {
	dir := t.TempDir()
	st, be, _ := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 8})
	feed(st, testPaths[:1], 0, 20)
	be.Close()
	re, be2, _ := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 8})
	defer be2.Close()
	if got := re.Len("path-00"); got != 8 {
		t.Fatalf("ring length = %d, want 8", got)
	}
	total, errs := re.Totals("path-00")
	if total != 20 || errs != 3 { // rounds 3, 10, 17 fail (round%7==3)
		t.Fatalf("totals = (%d, %d), want (20, 3)", total, errs)
	}
	last, _ := re.Last("path-00")
	if last.Round != 19 {
		t.Fatalf("last round = %d, want 19", last.Round)
	}
}

// TestOpenStoreAfterCompact pins the checkpoint's reason to exist:
// dropping old segments must not lose all-time counters or digest
// mass, only the evicted raw points.
func TestOpenStoreAfterCompact(t *testing.T) {
	dir := t.TempDir()
	st, be, _ := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 256})
	for s := 0; s < 4; s++ {
		feed(st, testPaths[:1], s*5, (s+1)*5)
		if err := be.Archive().Seal(); err != nil {
			t.Fatalf("Seal: %v", err)
		}
	}
	wantTotal, wantErrs := st.Totals("path-00")
	wantMedian := st.Quantile("path-00", 0.5)
	if _, err := be.Archive().Compact(1, 0); err != nil { // keep newest only
		t.Fatalf("Compact: %v", err)
	}
	if got := len(be.Archive().Segments()); got != 1 {
		t.Fatalf("segments after compact: %d", got)
	}
	be.Close()

	re, be2, rep := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 256})
	defer be2.Close()
	total, errs := re.Totals("path-00")
	if total != wantTotal || errs != wantErrs {
		t.Fatalf("post-compact totals = (%d, %d), want (%d, %d)", total, errs, wantTotal, wantErrs)
	}
	if got := re.Quantile("path-00", 0.5); got != wantMedian {
		t.Fatalf("post-compact median = %g, want %g", got, wantMedian)
	}
	// Only the newest segment's raw points are retained.
	if got := re.Len("path-00"); got != 5 {
		t.Fatalf("retained points = %d, want 5 (newest segment only)", got)
	}
	if rep.SealedRecords != 5+20 { // 5 points + 20 link windows in seg 4
		t.Logf("sealed records replayed: %d", rep.SealedRecords)
	}
}

// TestOpenStoreCorruptCheckpoint: a checkpoint that fails to decode is
// reported, and recovery falls back to counted replay of the retained
// records — exact here because nothing was compacted.
func TestOpenStoreCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Build an archive whose checkpoints are garbage (a buggy or
	// foreign producer), with otherwise valid records.
	clock := int64(3000)
	a, _, err := Open(dir, Options{NowUnix: func() int64 { clock++; return clock }})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a.checkpoint = func(b []byte) []byte {
		b = binary.BigEndian.AppendUint32(b, ckptMagic)
		return append(binary.BigEndian.AppendUint16(b, ckptVersion), "not a checkpoint"...)
	}
	be := &StoreBackend{a: a, digestSize: tsstore.DefaultDigestSize, paths: map[string]*shadowSeries{}, links: map[string]uint64{}}
	st := tsstore.NewWithBackend(tsstore.Config{Capacity: 32}, be)
	feed(st, testPaths[:1], 0, 6)
	if err := a.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	feed(st, testPaths[:1], 6, 8)
	wantTotal, wantErrs := st.Totals("path-00")
	be.Close()

	re, be2, rep := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 32})
	defer be2.Close()
	if !rep.CheckpointCorrupt {
		t.Fatalf("corrupt checkpoint not reported: %+v", rep)
	}
	total, errs := re.Totals("path-00")
	if total != wantTotal || errs != wantErrs {
		t.Fatalf("fallback totals = (%d, %d), want (%d, %d)", total, errs, wantTotal, wantErrs)
	}
	if round := re.Resume("path-00").Round; round != 8 {
		t.Fatalf("resume round = %d, want 8", round)
	}
}

// TestCheckpointVerdict: Recover judges a hash-valid live checkpoint by
// its envelope alone. The store is seeded from its own; its own magic
// at another version is corrupt; any other magic, a sibling's or one
// no consumer uses, and a blob too short for an envelope are foreign.
// Recovery replays counted after all but the first, and the archive it
// returns seals exactly when the checkpoint is not foreign.
func TestCheckpointVerdict(t *testing.T) {
	envelope := func(magic uint32, version uint16) []byte {
		return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(nil, magic), version)
	}
	// The store's own checkpoint claims 100 rounds; 3 are sealed.
	own := (&StoreBackend{paths: map[string]*shadowSeries{"p00": {total: 100, digest: tsstore.NewDigest(8)}}}).checkpoint(envelope(ckptMagic, ckptVersion))
	for _, c := range []struct {
		name             string
		blob             []byte
		corrupt, foreign bool
		total            uint64
	}{
		{"own", own, false, false, 100},
		{"own magic, version 1", append(envelope(ckptMagic, 1), own[envelopeLen:]...), true, false, 3},
		{"coordinator's magic", append(envelope(0x434c434b, 2), own[envelopeLen:]...), false, true, 3},
		{"unused magic", append(envelope(0x58585858, ckptVersion), own[envelopeLen:]...), false, true, 3},
		{"shorter than an envelope", own[:envelopeLen-1], false, true, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			a, _ := openT(t, dir, Options{})
			a.checkpoint = func(b []byte) []byte { return append(b, c.blob...) }
			for r := range 3 {
				p := tsstore.Point{Round: r, Lo: 1e6, Hi: 2e6}
				if err := a.Append(Record{Kind: KindPointCompact, Key: "p00", Data: p.AppendCompact(nil)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Seal(); err != nil {
				t.Fatal(err)
			}
			a.Close()

			st, be, rep := openStoreT(t, dir, Options{}, tsstore.Config{})
			defer be.Close()
			if total, _ := st.Totals("p00"); rep.CheckpointCorrupt != c.corrupt || rep.ForeignCheckpoint != c.foreign || total != c.total {
				t.Errorf("report %v, p00 total %d; want corrupt %v, foreign %v, total %d", rep, total, c.corrupt, c.foreign, c.total)
			}
			st.Observe(sample("p00", 3))
			if err := be.Archive().Seal(); c.foreign && !errors.Is(err, ErrForeignCheckpoint) || !c.foreign && err != nil {
				t.Errorf("Seal: %v; want ErrForeignCheckpoint %v", err, c.foreign)
			}
		})
	}
}

// TestStoreBackendAutoSealCheckpointConsistency hammers the
// auto-sealing archive from concurrent observers and then proves every
// segment's checkpoint exactly summarizes its sealed records — the
// shadow-state property that makes recovery double-count-free.
func TestStoreBackendAutoSealCheckpointConsistency(t *testing.T) {
	dir := t.TempDir()
	st, be, _ := openStoreT(t, dir, Options{SealBytes: 1 << 10}, tsstore.Config{Capacity: 512})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for r := 0; r < 50; r++ {
				st.Observe(sample(fmt.Sprintf("path-%02d", w), r))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	want := prom(t, st)
	if n, err := st.BackendErrs(); n != 0 {
		t.Fatalf("backend errors: %d %v", n, err)
	}
	if len(be.Archive().Segments()) < 2 {
		t.Fatalf("auto-seal produced %d segments", len(be.Archive().Segments()))
	}
	be.Close()
	re, be2, _ := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 512})
	defer be2.Close()
	if got := prom(t, re); got != want {
		t.Fatalf("concurrent-ingest recovery diverged:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPointCodecRoundtripAndDamage: the point, link and checkpoint
// decoders round-trip what the encoders write, and turn every strict
// prefix of it — and one trailing byte — into an error and a zero value
// instead of inventing fields.
func TestPointCodecRoundtripAndDamage(t *testing.T) {
	p := tsstore.Point{Round: 42, At: time.Second, Span: 60 * time.Millisecond, Lo: 39.5e6, Hi: 44e6, Bits: 1.25e6, Err: "loss"}
	lp := tsstore.LinkPoint{Round: 3, At: time.Second, Span: time.Second, Util: 0.7, Capacity: 1e8}
	ck := &StoreBackend{
		paths: map[string]*shadowSeries{"p0": {total: 3, errs: 1, digest: tsstore.NewDigest(8)}},
		links: map[string]uint64{"core": 2},
	}
	ck.paths["p0"].digest.Add(1e6)
	ck.paths["p0"].digest.Add(2e6)
	for _, c := range []struct {
		name   string
		blob   []byte
		decode func([]byte) (any, error)
		want   any
	}{
		{"point", p.AppendCompact(nil), func(b []byte) (any, error) { return decodePoint(b) }, p},
		{"link", appendLink(nil, lp), func(b []byte) (any, error) { return decodeLink(b) }, lp},
		{"checkpoint", ck.checkpoint(nil), func(b []byte) (any, error) {
			d, err := decodeCheckpoint(b)
			if d == nil {
				return nil, err
			}
			return d.pathOrder, err
		}, []string{"p0"}},
	} {
		if got, err := c.decode(c.blob); err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s roundtrip: got %+v, %v; want %+v", c.name, got, err, c.want)
		}
		for n := 1; n <= len(c.blob); n++ { // 0 bytes is "no checkpoint yet", not damage
			in := c.blob[:n]
			if n == len(c.blob) {
				in = append(append([]byte(nil), c.blob...), 0)
			}
			if got, err := c.decode(in); err == nil || (got != nil && !reflect.ValueOf(got).IsZero()) {
				t.Errorf("%s: %d of %d bytes decoded to %+v, err %v", c.name, len(in), len(c.blob), got, err)
			}
		}
	}
	if _, err := decodePoint(nil); err == nil {
		t.Error("empty point payload accepted")
	}
}

// ckptV1 hand-assembles a version 1 checkpoint body of one path and no
// links, as archives before checkpoint version 2 hold them: fixed-width
// counts and a length-prefixed digest of fixed-width fields (budget
// u32, count u64, centroid count u32, then mean/weight pairs as u64s).
func ckptV1(path string, total, errs uint64) []byte {
	digest := binary.BigEndian.AppendUint32(nil, 64)
	digest = binary.BigEndian.AppendUint64(digest, total-errs)
	digest = binary.BigEndian.AppendUint32(digest, 1)
	digest = binary.BigEndian.AppendUint64(digest, math.Float64bits(5e6))
	digest = binary.BigEndian.AppendUint64(digest, total-errs)
	b := binary.BigEndian.AppendUint32(nil, 1)
	b = wire.AppendString(b, path)
	b = binary.BigEndian.AppendUint64(b, total)
	b = binary.BigEndian.AppendUint64(b, errs)
	b = binary.BigEndian.AppendUint32(b, uint32(len(digest)))
	b = append(b, digest...)
	return binary.BigEndian.AppendUint32(b, 0)
}

// TestVersion1CheckpointRebuiltByReplay: a version 1 store checkpoint,
// sealed under a version 2 segment, is not read: OpenStore reports it
// corrupt and rebuilds every counter by counted replay of the sealed
// records, so the store holds what they hold and nothing the
// checkpoint claims.
func TestVersion1CheckpointRebuiltByReplay(t *testing.T) {
	dir := t.TempDir()
	want := tsstore.New(tsstore.Config{})
	a, _, err := Recover(dir, Options{}, Consumer{
		Magic:      ckptMagic,
		Version:    1,
		Seed:       func([]byte) error { return nil },
		Apply:      func(Record, bool) (bool, bool, error) { return true, true, nil },
		Checkpoint: func(b []byte) []byte { return append(b, ckptV1("p00", 1000, 10)...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range 4 {
		p := tsstore.Point{Round: r, At: time.Duration(r) * time.Second, Span: time.Second, Lo: 1e6, Hi: 2e6 + float64(r)*1e5, Bits: 1e5}
		want.ReplayPoint("p00", p, true)
		if err := a.Append(Record{Kind: KindPointCompact, Key: "p00", Data: p.AppendCompact(nil)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	st, be, rep, err := OpenStore(dir, Options{}, tsstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if !rep.CheckpointCorrupt || rep.SealedRecords != 4 || rep.ForeignRecords != 0 {
		t.Fatalf("report %v: want a corrupt checkpoint and 4 sealed records replayed counted", rep)
	}
	sameStore(t, st, want)
}

// TestRetiredPointKindIsForeign: a record of kind 0x01, the
// fixed-width point of archives before KindPointCompact, is counted as
// foreign and changes no series, sealed or in the WAL.
func TestRetiredPointKindIsForeign(t *testing.T) {
	dir := t.TempDir()
	st, be, _ := openStoreT(t, dir, Options{}, tsstore.Config{})
	want := tsstore.New(tsstore.Config{})
	for r := range 3 {
		s := pathload.Sample{Path: "p00", Round: r, At: time.Duration(r) * time.Second,
			Result: pathload.Result{Lo: 1e6, Hi: 2e6, Elapsed: time.Second, Bits: 1e5}}
		st.Observe(s)
		want.Observe(s)
	}
	// A well-formed fixed-width point: Round, At, Span as u64, Lo, Hi,
	// Bits as float64 bits, Err as a u16-prefixed string.
	old := binary.BigEndian.AppendUint64(nil, 9)
	for _, v := range []uint64{uint64(9 * time.Second), uint64(time.Second), math.Float64bits(7e6), math.Float64bits(8e6), math.Float64bits(1e5)} {
		old = binary.BigEndian.AppendUint64(old, v)
	}
	old = wire.AppendString(old, "")
	for _, seal := range []bool{true, false} {
		if err := be.Archive().Append(Record{Kind: 0x01, Key: "p00", Data: old}); err != nil {
			t.Fatal(err)
		}
		if seal {
			if err := be.Archive().Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	re, be2, rep := openStoreT(t, dir, Options{}, tsstore.Config{})
	defer be2.Close()
	if rep.ForeignRecords != 2 || rep.CheckpointCorrupt {
		t.Fatalf("report %v: want 2 foreign records under a sound checkpoint", rep)
	}
	sameStore(t, re, want)
}

// TestPointRecordLayout: a KindPointCompact payload, what AppendPoint
// writes, is tsstore.Point's AppendCompact form — the committed vector
// the coordinator's push is pinned to as well.
func TestPointRecordLayout(t *testing.T) {
	raw, err := os.ReadFile("../tsstore/testdata/point_compact.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodePoint(want)
	if err != nil {
		t.Fatalf("decodePoint(point_compact.hex): %v", err)
	}
	if p.Round != 7 || p.At != 3*time.Second || p.Hi != 6e6 || p.Err != "timeout" {
		t.Fatalf("point_compact.hex decoded to %+v", p)
	}
	if !bytes.Equal(p.AppendCompact(nil), want) {
		t.Fatalf("AppendCompact:\n got %x\nwant %x", p.AppendCompact(nil), want)
	}
}

// TestCheckpointRejectsPoisonedDigest: a checkpoint carrying a digest
// whose centroid weights wrap u64 to its stated count is corrupt — recovery falls back to counted replay
// rather than seed a series' all-time distribution from it.
func TestCheckpointRejectsPoisonedDigest(t *testing.T) {
	good := &StoreBackend{paths: map[string]*shadowSeries{"p0": {total: 2, digest: tsstore.NewDigest(64)}}}
	good.paths["p0"].digest.Add(1e6)
	good.paths["p0"].digest.Add(2e6)
	blob := good.checkpoint(nil)
	if _, err := decodeCheckpoint(blob); err != nil {
		t.Fatalf("clean checkpoint: %v", err)
	}
	// The digest is last before the one-byte link count: give it a
	// count of 0 and both centroids weight 2^63.
	poison := binary.AppendUvarint(nil, 64)
	poison = binary.AppendUvarint(poison, 0)
	poison = binary.AppendUvarint(poison, 2)
	for _, mean := range []float64{1e6, 2e6} {
		poison = binary.BigEndian.AppendUint64(poison, math.Float64bits(mean))
		poison = binary.AppendUvarint(poison, 1<<63)
	}
	d := good.paths["p0"].digest
	at := len(blob) - 1 - d.CompactSize()
	head := blob[:at:at]
	if !bytes.Equal(append(append(head, d.AppendCompact(nil)...), 0), blob) {
		t.Fatal("the digest is not where this test splices")
	}
	if ck, err := decodeCheckpoint(append(append(head, poison...), 0)); err == nil || ck != nil {
		t.Fatalf("poisoned checkpoint decoded: %+v, %v", ck, err)
	}
}

// Archive size gate. sizeBudgetPerRecord is the bytes on disk per
// point record — WAL, segments, the live checkpoint and HEAD over the
// number of points — that TestArchiveSizeBudget's shape may take:
// 68.3 B measured with compact point records, version 2 checkpoints
// and one live checkpoint file, plus about 2 %. The same shape took
// 83.0 B with a checkpoint in every segment, and 116.8 B with
// fixed-width point records and version 1 checkpoints as well, so
// losing any of the three fails it.
const sizeBudgetPerRecord = 70

// dirBytes sums the sizes of the files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		size += info.Size()
	}
	return size
}

// TestArchiveSizeBudget writes a fixed synthetic history — 300 paths,
// 40 rounds, a seal every 10, samples shaped like the benchmark's
// store_pipeline — and holds the directory's size per record to
// sizeBudgetPerRecord. From one seal to the next the directory must
// grow by the records appended between them, one segment header, and
// the checkpoint's growth: a seal replaces the checkpoint, it never
// keeps the one before beside the new one.
func TestArchiveSizeBudget(t *testing.T) {
	const paths, rounds, sealEvery = 300, 40, 10
	dir := t.TempDir()
	st, be, _ := openStoreT(t, dir, Options{}, tsstore.Config{Capacity: 32})
	rng := rand.New(rand.NewSource(1))
	levels := make([]float64, paths)
	for i := range levels {
		levels[i] = 2e6 + 20e6*rng.Float64()
	}
	var lastSeal int64 // the directory's size after the last seal
	for r := 0; r < rounds; r++ {
		for i, level := range levels {
			mid, width := level*(0.9+0.2*rng.Float64()), 0.2e6+1.8e6*rng.Float64()
			st.Observe(pathload.Sample{
				Path:  fmt.Sprintf("path-%05d", i),
				Round: r,
				At:    time.Duration(r)*5*time.Second + time.Duration(rng.Int63n(int64(time.Second))),
				Result: pathload.Result{
					Lo: mid - width/2, Hi: mid + width/2,
					Elapsed: 3*time.Second + time.Duration(rng.Int63n(int64(3*time.Second))),
					Bits:    1e6 + 3e6*rng.Float64(),
				},
			})
		}
		if (r+1)%sealEvery == 0 {
			wal, err := os.Stat(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			oldCkpt := int64(len(be.Archive().ckpt))
			if err := be.Archive().Seal(); err != nil {
				t.Fatal(err)
			}
			size := dirBytes(t, dir)
			newCkpt := int64(len(be.Archive().ckpt))
			if want := lastSeal + (wal.Size() - walHdrLen) + segHdrLen + newCkpt - oldCkpt; r >= sealEvery && size != want {
				t.Fatalf("seal at round %d: directory %d B, want %d B (%d B of records, a %d B header, checkpoint %d B → %d B)",
					r, size, want, wal.Size()-walHdrLen, segHdrLen, oldCkpt, newCkpt)
			}
			lastSeal = size
		}
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	size := dirBytes(t, dir)
	perRecord := float64(size) / (paths * rounds)
	t.Logf("%d bytes on disk for %d records: %.1f B per record", size, paths*rounds, perRecord)
	if perRecord > sizeBudgetPerRecord {
		t.Fatalf("archive takes %.1f B per record, budget %d", perRecord, sizeBudgetPerRecord)
	}
}
