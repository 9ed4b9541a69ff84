package archive

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/tsstore"
	"repro/internal/wire"
)

// Record kinds of the tsstore adapter. Kind 0x01, the fixed-width
// point of archives before KindPointCompact, is retired: recovery
// counts such a record as foreign.
const (
	// KindLink is one per-link utilization window (tsstore.LinkPoint).
	KindLink uint8 = 0x02
	// KindPointCompact is one per-path sample in tsstore.Point's one
	// byte form, AppendCompact: what StoreBackend.AppendPoint writes.
	KindPointCompact uint8 = 0x03
)

// The store's checkpoint envelope (see Consumer): "TSCK", version 2,
// whose body holds uvarint counts and AppendCompact digests. Recovery
// reads no other version; it calls one corrupt and rebuilds its
// counters by counted replay.
const (
	ckptMagic   = 0x5453434b // "TSCK"
	ckptVersion = 2
)

// A StoreBackend adapts an Archive to tsstore.Backend: every sample
// and link window the store ingests becomes one WAL record. It also
// maintains the checkpoint shadow — per-path all-time totals, error
// counts, and mergeable digests, plus per-link window counts — updated
// record-by-record under the archive lock (its OnAppend hook), so the
// checkpoint a seal writes summarizes exactly the records that segment
// and its predecessors hold, regardless of what the live store ingested
// concurrently. Summarizing the live store instead would race: a sample
// landing between the seal boundary and the summary would be counted by
// the checkpoint *and* replayed from the next WAL.
//
// Wire up with OpenStore, which seeds the shadow once per path from
// the recovered store before it hands the store out.
type StoreBackend struct {
	a          *Archive
	digestSize int

	// The shadow maps are touched only under the archive lock (by the
	// OnAppend and Checkpoint hooks) after seeding.
	paths map[string]*shadowSeries
	links map[string]uint64
}

type shadowSeries struct {
	total, errs uint64
	digest      *tsstore.Digest
}

// AppendPoint implements tsstore.Backend. The point is encoded once,
// straight into the archive's frame: an append allocates nothing.
func (t *StoreBackend) AppendPoint(path string, p tsstore.Point) error {
	return t.a.appendEncoded(KindPointCompact, path, p.AppendCompact)
}

// AppendLink implements tsstore.Backend, encoding like AppendPoint.
func (t *StoreBackend) AppendLink(link string, p tsstore.LinkPoint) error {
	return t.a.appendEncoded(KindLink, link, func(b []byte) []byte { return appendLink(b, p) })
}

// Close implements tsstore.Backend, closing the underlying archive.
func (t *StoreBackend) Close() error { return t.a.Close() }

// Archive returns the underlying archive (for Seal/Compact/Segments).
func (t *StoreBackend) Archive() *Archive { return t.a }

// onAppend keeps the shadow in step with the WAL; called under the
// archive lock for every appended record.
func (t *StoreBackend) onAppend(rec Record) {
	switch rec.Kind {
	case KindPointCompact:
		mid, ok, err := pointOutcome(rec.Data)
		if err != nil {
			return
		}
		s := t.paths[rec.Key]
		if s == nil {
			s = &shadowSeries{digest: tsstore.NewDigest(t.digestSize)}
			t.paths[rec.Key] = s
		}
		s.total++
		if ok {
			s.digest.Add(mid)
		} else {
			s.errs++
		}
	case KindLink:
		t.links[rec.Key]++
	}
}

// pointOutcome reads of a point record what the shadow keeps: the
// center of its range, and whether the round succeeded. It accepts what
// decodePoint accepts, but never makes the error text, the payload's
// last field, a string: a failed round costs the shadow no allocation.
func pointOutcome(b []byte) (mid float64, ok bool, err error) {
	d := wire.NewReader("archive: point record", b)
	d.Varint() // Round
	d.Varint() // At
	d.Varint() // Span
	lo, hi := d.F64(), d.F64()
	d.F64() // Bits
	errLen := d.Uvarint()
	if d.Err() != nil || errLen != uint64(d.Len()) || errLen > math.MaxUint16 {
		return 0, false, errors.New("archive: point record does not decode")
	}
	return (lo + hi) / 2, errLen == 0, nil
}

// checkpoint appends the shadow to b, the checkpoint's envelope, as
// checkpoint version 2's body:
//
//	nPaths uvarint |
//	  per path, in key order: key (uvarint length) | total uvarint |
//	  errs uvarint | digest (tsstore.Digest.AppendCompact) |
//	nLinks uvarint | per link, in key order: key | total uvarint
//
// Called under the archive lock at seal, it writes into one buffer of
// the checkpoint's exact size, every length computed before the first
// byte is written. (A key is a record key, at most MaxKey bytes, so its
// string prefix never cuts it.)
func (t *StoreBackend) checkpoint(b []byte) []byte {
	paths := make([]string, 0, len(t.paths))
	size := len(b) + wire.UvarintLen(uint64(len(t.paths))) + wire.UvarintLen(uint64(len(t.links)))
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

	b = append(make([]byte, 0, size), b...)
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

// OpenStore rebuilds a tsstore.Store from the archive directory
// (Recover: the checkpoint seeds each path's all-time totals, error
// counts and digest and each link's window count, sealed records refill
// the rings, the WAL tail replays counted) and wires it so further
// ingest is teed back into the archive. The returned store serves reads
// from memory as always; Close it (or the backend) to release the
// archive.
func OpenStore(dir string, opt Options, cfg tsstore.Config) (*tsstore.Store, *StoreBackend, StoreReport, error) {
	t := &StoreBackend{digestSize: cmp.Or(cfg.DigestSize, tsstore.DefaultDigestSize), paths: map[string]*shadowSeries{}, links: map[string]uint64{}}
	st := tsstore.NewWithBackend(cfg, t)
	a, rep, err := Recover(dir, opt, Consumer{
		Magic:      ckptMagic,
		Version:    ckptVersion,
		Seed:       func(b []byte) error { return seedStore(st, b) },
		Apply:      func(r Record, counted bool) (bool, bool, error) { return replayStore(st, r, counted) },
		OnAppend:   t.onAppend,
		Checkpoint: t.checkpoint,
	})
	if err != nil {
		return nil, nil, rep, err
	}
	t.a = a
	t.seedFrom(st)
	return st, t, rep, nil
}

// seedStore seeds st from a checkpoint body, or leaves it untouched and
// returns an error.
func seedStore(st *tsstore.Store, b []byte) error {
	ck, err := decodeCheckpoint(b)
	if err != nil {
		return err
	}
	for _, p := range ck.pathOrder {
		s := ck.paths[p]
		st.SeedSeries(p, s.total, s.errs, s.digest)
	}
	for _, l := range ck.linkOrder {
		st.SeedLink(l, ck.links[l])
	}
	return nil
}

// replayStore replays one recovered record into st, counted or ring
// only; it owns and uses every point and link record.
func replayStore(st *tsstore.Store, r Record, counted bool) (owned, used bool, err error) {
	switch r.Kind {
	case KindPointCompact:
		p, err := decodePoint(r.Data)
		if err != nil {
			return true, false, fmt.Errorf("archive: point record for %q: %w", r.Key, err)
		}
		st.ReplayPoint(r.Key, p, counted)
	case KindLink:
		p, err := decodeLink(r.Data)
		if err != nil {
			return true, false, fmt.Errorf("archive: link record for %q: %w", r.Key, err)
		}
		st.ReplayLink(r.Key, p, counted)
	default:
		return false, false, nil
	}
	return true, true, nil
}

// decodedCkpt is a parsed checkpoint body.
type decodedCkpt struct {
	pathOrder []string
	paths     map[string]shadowSeries
	linkOrder []string
	links     map[string]uint64
}

// decodeCheckpoint parses a checkpoint body, or returns an error for a
// corrupt one.
func decodeCheckpoint(b []byte) (*decodedCkpt, error) {
	d := wire.NewReader("archive: checkpoint", b)
	out := &decodedCkpt{paths: map[string]shadowSeries{}, links: map[string]uint64{}}
	nPaths := d.Uvarint()
	for i := uint64(0); i < nPaths; i++ {
		key, total, errs := d.VarStr(), d.Uvarint(), d.Uvarint()
		if d.Err() != nil {
			break
		}
		dig, derr := tsstore.ReadCompactDigest(&d)
		if derr != nil {
			return nil, fmt.Errorf("archive: checkpoint digest for %q: %w", key, derr)
		}
		out.pathOrder = append(out.pathOrder, key)
		out.paths[key] = shadowSeries{total, errs, dig}
	}
	nLinks := d.Uvarint()
	for i := uint64(0); i < nLinks; i++ {
		key, total := d.VarStr(), d.Uvarint()
		if d.Err() != nil {
			break
		}
		out.linkOrder = append(out.linkOrder, key)
		out.links[key] = total
	}
	return wire.Finish(&d, out)
}

// decodePoint decodes the payload of a point record.
func decodePoint(b []byte) (tsstore.Point, error) {
	d := wire.NewReader("archive: point record", b)
	return wire.Finish(&d, tsstore.ReadCompactPoint(&d))
}

// appendLink appends a KindLink record's payload, p's fields as
// big-endian u64s.
func appendLink(b []byte, p tsstore.LinkPoint) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(p.Round))
	b = binary.BigEndian.AppendUint64(b, uint64(p.At))
	b = binary.BigEndian.AppendUint64(b, uint64(p.Span))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Util))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Capacity))
	return b
}

// decodeLink is the inverse of appendLink.
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

// DecodePointRecord decodes a KindPointCompact record (for cat-style
// tools).
func DecodePointRecord(r Record) (path string, p tsstore.Point, err error) {
	if r.Kind != KindPointCompact {
		return "", tsstore.Point{}, fmt.Errorf("archive: record kind 0x%02x is not a point", r.Kind)
	}
	p, err = decodePoint(r.Data)
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
