package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/tsstore"
	"repro/internal/wire"
)

// Record kinds of the tsstore adapter.
const (
	// KindPoint is one per-path sample in tsstore.Point's AppendBinary
	// layout (Wall excluded). Archives written before KindPointCompact
	// hold these; recovery reads them, nothing writes them any more.
	KindPoint uint8 = 0x01
	// KindLink is one per-link utilization window (tsstore.LinkPoint).
	KindLink uint8 = 0x02
	// KindPointCompact is one per-path sample in tsstore.Point's
	// AppendCompact form: what StoreBackend.AppendPoint writes. A reader
	// that predates it counts these records as foreign.
	KindPointCompact uint8 = 0x03
)

// The checkpoint blob opens with ckptMagic and a u16 version. Version
// 1 holds fixed-width counts and MarshalBinary digests; version 2,
// which checkpoint writes, holds uvarint counts and AppendCompact
// digests. Recovery reads both; a reader that predates version 2 calls
// such a checkpoint corrupt and rebuilds its counters by counted
// replay.
const (
	ckptMagic   = 0x5453434b // "TSCK"
	ckptVersion = 2
)

// A StoreBackend adapts an Archive to tsstore.Backend: every sample
// and link window the store ingests becomes one WAL record. It also
// maintains the checkpoint shadow — per-path all-time totals, error
// counts, and mergeable digests, plus per-link window counts — updated
// record-by-record under the archive lock (the SetHooks append hook),
// so the checkpoint a seal writes summarizes exactly the records that
// segment and its predecessors hold, regardless of what
// the live store ingested concurrently. Summarizing the live store instead would
// race: a sample landing between the seal boundary and the summary
// would be counted by the checkpoint *and* replayed from the next WAL.
//
// Wire up with OpenStore; the shadow state is seeded from the
// recovered store before hooks are installed.
type StoreBackend struct {
	a          *Archive
	digestSize int

	// The shadow maps are touched only under the archive lock (via the
	// SetHooks hooks) after seeding.
	paths map[string]*shadowSeries
	links map[string]uint64
}

type shadowSeries struct {
	total, errs uint64
	digest      *tsstore.Digest
}

// AppendPoint implements tsstore.Backend.
func (t *StoreBackend) AppendPoint(path string, p tsstore.Point) error {
	return t.a.Append(Record{Kind: KindPointCompact, Key: path, Data: encodePoint(p)})
}

// AppendLink implements tsstore.Backend.
func (t *StoreBackend) AppendLink(link string, p tsstore.LinkPoint) error {
	return t.a.Append(Record{Kind: KindLink, Key: link, Data: encodeLink(p)})
}

// Close implements tsstore.Backend, closing the underlying archive.
func (t *StoreBackend) Close() error { return t.a.Close() }

// Archive returns the underlying archive (for Seal/Compact/Segments).
func (t *StoreBackend) Archive() *Archive { return t.a }

// onAppend keeps the shadow in step with the WAL; called under the
// archive lock for every appended record.
func (t *StoreBackend) onAppend(rec Record) {
	switch rec.Kind {
	case KindPoint, KindPointCompact:
		p, err := decodePoint(rec.Kind, rec.Data)
		if err != nil {
			return
		}
		s := t.paths[rec.Key]
		if s == nil {
			s = &shadowSeries{digest: tsstore.NewDigest(t.digestSize)}
			t.paths[rec.Key] = s
		}
		s.total++
		if p.OK() {
			s.digest.Add(p.Mid())
		} else {
			s.errs++
		}
	case KindLink:
		t.links[rec.Key]++
	}
}

// checkpoint encodes the shadow, in checkpoint version 2:
//
//	magic u32 | version u16 | nPaths uvarint |
//	  per path, in key order: key (uvarint length) | total uvarint |
//	  errs uvarint | digest (tsstore.Digest.AppendCompact) |
//	nLinks uvarint | per link, in key order: key | total uvarint
//
// Called under the archive lock at seal, it writes into one buffer of
// the checkpoint's exact size, every length computed before the first
// byte is written. (A key is a record key, at most MaxKey bytes, so its
// string prefix never cuts it.)
func (t *StoreBackend) checkpoint() []byte {
	paths := make([]string, 0, len(t.paths))
	size := 4 + 2 + wire.UvarintLen(uint64(len(t.paths))) + wire.UvarintLen(uint64(len(t.links)))
	for p, s := range t.paths {
		paths = append(paths, p)
		size += wire.VarStringLen(p) + wire.UvarintLen(s.total) + wire.UvarintLen(s.errs) + s.digest.CompactSize()
	}
	sort.Strings(paths)
	links := make([]string, 0, len(t.links))
	for l, n := range t.links {
		links = append(links, l)
		size += wire.VarStringLen(l) + wire.UvarintLen(n)
	}
	sort.Strings(links)

	b := make([]byte, 0, size)
	b = binary.BigEndian.AppendUint32(b, ckptMagic)
	b = binary.BigEndian.AppendUint16(b, ckptVersion)
	b = binary.AppendUvarint(b, uint64(len(paths)))
	for _, p := range paths {
		s := t.paths[p]
		b = wire.AppendVarString(b, p)
		b = binary.AppendUvarint(b, s.total)
		b = binary.AppendUvarint(b, s.errs)
		b = s.digest.AppendCompact(b)
	}
	b = binary.AppendUvarint(b, uint64(len(links)))
	for _, l := range links {
		b = wire.AppendVarString(b, l)
		b = binary.AppendUvarint(b, t.links[l])
	}
	return b
}

// seedFrom primes the shadow from a just-recovered store, whose
// totals/digests equal the cumulative state over every record ever
// appended (checkpoint seed + tail replay). Must run before hooks are
// installed.
func (t *StoreBackend) seedFrom(st *tsstore.Store) {
	for _, p := range st.Paths() {
		total, errs := st.Totals(p)
		d := st.DigestSnapshot(p)
		if d == nil {
			d = tsstore.NewDigest(t.digestSize)
		}
		t.paths[p] = &shadowSeries{total: total, errs: errs, digest: d}
	}
	for _, l := range st.Links() {
		t.links[l] = st.LinkTotal(l)
	}
}

// A StoreReport extends OpenReport with what store recovery found.
type StoreReport struct {
	OpenReport
	// SealedRecords were replayed from sealed segments; the WAL tail
	// count is OpenReport.TailRecords.
	SealedRecords int
	// ForeignRecords carry kinds the tsstore adapter does not decode
	// (e.g. coordinator records sharing the directory); skipped.
	ForeignRecords int
	// CheckpointCorrupt means the newest segment's checkpoint failed
	// to decode. All-time counters and digests were rebuilt by counted
	// replay of the retained records instead — exact unless Compact
	// has dropped segments, in which case the pre-compaction history
	// is missing from the counters (explicitly, never silently).
	CheckpointCorrupt bool
}

// String renders the report for operator logs.
func (r StoreReport) String() string {
	s := r.OpenReport.String() + fmt.Sprintf(", %d sealed records", r.SealedRecords)
	if r.ForeignRecords > 0 {
		s += fmt.Sprintf(", %d foreign records skipped", r.ForeignRecords)
	}
	if r.CheckpointCorrupt {
		s += ", checkpoint corrupt (counters rebuilt from retained records)"
	}
	return s
}

// OpenStore opens the archive directory and rebuilds a tsstore.Store
// from it, wired so further ingest is teed back into the archive:
//
//  1. sealed records replay ring-only (their counter and digest
//     contribution comes from the newest checkpoint — replaying them
//     counted would double-count),
//  2. the newest checkpoint seeds each path's all-time totals, error
//     counts, and digest (and each link's window count),
//  3. the WAL tail — records no checkpoint covers — replays counted.
//
// With no (or a corrupt) checkpoint, everything replays counted and
// the report says so. The returned store serves reads from memory as
// always; Close it (or the backend) to release the archive.
func OpenStore(dir string, opt Options, cfg tsstore.Config) (*tsstore.Store, *StoreBackend, StoreReport, error) {
	a, orep, err := Open(dir, opt)
	rep := StoreReport{OpenReport: orep}
	if err != nil {
		return nil, nil, rep, err
	}
	size := cfg.DigestSize
	if size == 0 {
		size = tsstore.DefaultDigestSize
	}
	t := &StoreBackend{a: a, digestSize: size, paths: map[string]*shadowSeries{}, links: map[string]uint64{}}
	st := tsstore.NewWithBackend(cfg, t)

	ck, ckErr := decodeCheckpoint(a.Checkpoint())
	if ckErr != nil {
		rep.CheckpointCorrupt = true
	}
	counted := ck == nil
	replay := func(r Record, counted bool) error {
		switch r.Kind {
		case KindPoint, KindPointCompact:
			p, derr := decodePoint(r.Kind, r.Data)
			if derr != nil {
				return fmt.Errorf("archive: point record for %q: %w", r.Key, derr)
			}
			st.ReplayPoint(r.Key, p, counted)
		case KindLink:
			p, derr := decodeLink(r.Data)
			if derr != nil {
				return fmt.Errorf("archive: link record for %q: %w", r.Key, derr)
			}
			st.ReplayLink(r.Key, p, counted)
		default:
			rep.ForeignRecords++
		}
		return nil
	}
	if err := a.ReplaySealed(func(r Record) error { rep.SealedRecords++; return replay(r, counted) }); err != nil {
		a.Close()
		return nil, nil, rep, err
	}
	rep.SealedRecords -= rep.ForeignRecords
	if ck != nil {
		for _, p := range ck.pathOrder {
			s := ck.paths[p]
			st.SeedSeries(p, s.total, s.errs, s.digest)
		}
		for _, l := range ck.linkOrder {
			st.SeedLink(l, ck.links[l])
		}
	}
	if err := a.ReplayTail(func(r Record) error { return replay(r, true) }); err != nil {
		a.Close()
		return nil, nil, rep, err
	}
	t.seedFrom(st)
	a.SetHooks(t.onAppend, t.checkpoint)
	return st, t, rep, nil
}

// decodedCkpt is a parsed checkpoint blob.
type decodedCkpt struct {
	pathOrder []string
	paths     map[string]shadowSeries
	linkOrder []string
	links     map[string]uint64
}

// decodeCheckpoint parses a checkpoint blob of either version; (nil,
// nil) for an empty blob (no checkpoint sealed yet), an error for a
// corrupt one.
func decodeCheckpoint(b []byte) (*decodedCkpt, error) {
	if len(b) == 0 {
		return nil, nil
	}
	d := ckptReader{Reader: wire.NewReader("archive: checkpoint", b)}
	if d.U32() != ckptMagic {
		return nil, errors.New("archive: checkpoint has wrong magic")
	}
	v := d.U16()
	if v != 1 && v != ckptVersion && d.Err() == nil {
		return nil, fmt.Errorf("archive: checkpoint version %d, want 1 or %d", v, ckptVersion)
	}
	d.v1 = v == 1
	out := &decodedCkpt{paths: map[string]shadowSeries{}, links: map[string]uint64{}}
	nPaths := d.count()
	for i := uint64(0); i < nPaths; i++ {
		key, total, errs := d.key(), d.num(), d.num()
		if d.Err() != nil {
			break
		}
		dig, derr := d.digest()
		if derr != nil {
			return nil, fmt.Errorf("archive: checkpoint digest for %q: %w", key, derr)
		}
		out.pathOrder = append(out.pathOrder, key)
		out.paths[key] = shadowSeries{total, errs, dig}
	}
	nLinks := d.count()
	for i := uint64(0); i < nLinks; i++ {
		key, total := d.key(), d.num()
		if d.Err() != nil {
			break
		}
		out.linkOrder = append(out.linkOrder, key)
		out.links[key] = total
	}
	return wire.Finish(&d.Reader, out)
}

// A ckptReader reads a checkpoint's counts, keys, totals and digests in
// the layout of its version: fixed-width for version 1, varint for 2.
type ckptReader struct {
	wire.Reader
	v1 bool
}

func (r *ckptReader) count() uint64 {
	if r.v1 {
		return uint64(r.U32())
	}
	return r.Uvarint()
}

func (r *ckptReader) num() uint64 {
	if r.v1 {
		return r.U64()
	}
	return r.Uvarint()
}

func (r *ckptReader) key() string {
	if r.v1 {
		return r.Str()
	}
	return r.VarStr()
}

func (r *ckptReader) digest() (*tsstore.Digest, error) {
	if !r.v1 {
		return tsstore.ReadCompactDigest(&r.Reader)
	}
	blob := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return tsstore.UnmarshalDigest(blob)
}

// encodePoint serializes a Point for a KindPointCompact record, in the
// one exact-size allocation AppendCompact makes.
func encodePoint(p tsstore.Point) []byte { return p.AppendCompact(nil) }

// decodePoint decodes the payload of a point record of the given kind:
// KindPoint through tsstore.ReadPoint (the SLCP push codec), anything
// else as KindPointCompact. Wall stays zero.
func decodePoint(kind uint8, b []byte) (tsstore.Point, error) {
	d := wire.NewReader("archive: point record", b)
	if kind == KindPoint {
		return wire.Finish(&d, tsstore.ReadPoint(&d))
	}
	return wire.Finish(&d, tsstore.ReadCompactPoint(&d))
}

// encodeLink serializes a LinkPoint for the WAL.
func encodeLink(p tsstore.LinkPoint) []byte {
	b := make([]byte, 0, 8*5)
	b = binary.BigEndian.AppendUint64(b, uint64(p.Round))
	b = binary.BigEndian.AppendUint64(b, uint64(p.At))
	b = binary.BigEndian.AppendUint64(b, uint64(p.Span))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Util))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Capacity))
	return b
}

// decodeLink is the inverse of encodeLink.
func decodeLink(b []byte) (tsstore.LinkPoint, error) {
	d := wire.NewReader("archive: link record", b)
	return wire.Finish(&d, tsstore.LinkPoint{
		Round:    int(int64(d.U64())),
		At:       d.Dur(),
		Span:     d.Dur(),
		Util:     d.F64(),
		Capacity: d.F64(),
	})
}

// DecodePointRecord decodes a point record of either kind (for
// cat-style tools).
func DecodePointRecord(r Record) (path string, p tsstore.Point, err error) {
	if r.Kind != KindPoint && r.Kind != KindPointCompact {
		return "", tsstore.Point{}, fmt.Errorf("archive: record kind 0x%02x is not a point", r.Kind)
	}
	p, err = decodePoint(r.Kind, r.Data)
	return r.Key, p, err
}

// DecodeLinkRecord decodes a KindLink record.
func DecodeLinkRecord(r Record) (link string, p tsstore.LinkPoint, err error) {
	if r.Kind != KindLink {
		return "", tsstore.LinkPoint{}, fmt.Errorf("archive: record kind 0x%02x is not a link window", r.Kind)
	}
	p, err = decodeLink(r.Data)
	return r.Key, p, err
}
