// Package archive is the durable tier behind tsstore: an append-only
// write-ahead log of Records, periodically sealed into immutable,
// hash-chained segment files with a cumulative checkpoint per segment.
// It is what makes a monitored fleet's history survive the process —
// and trustworthy after it: every sealed segment's header commits to
// the SHA-256 of its predecessor's whole file, a HEAD file anchors the
// newest hash, and a cheap chain walk (Verify) detects any flipped
// byte in sealed history. The shape follows the off-chain-data /
// on-chain-hash split of audit-log systems: bulk records live in
// ordinary files; integrity lives in one 32-byte chain head.
//
// Layout of an archive directory:
//
//	wal.log        walMagic u32 | version u16 | afterSeg u64 | records…
//	seg-NNNNNNNN   segMagic u32 | version u16 | index u64 | prevHash 32B |
//	               sealedUnix i64 | recordCount u32 | ckptLen u32 |
//	               checkpoint | records…
//	HEAD           "plarchive v1\n<index> <sha256 hex>\n"
//
// The WAL header's afterSeg names the newest segment the WAL follows;
// it is what makes crash windows around sealing unambiguous. Sealing
// writes the new segment, swaps in a fresh WAL, then rewrites HEAD —
// each step an atomic temp+rename — so a crash leaves exactly one of
// three states, and Open heals or reports each explicitly: a WAL whose
// afterSeg trails the newest segment is stale (its records were
// sealed) and is discarded with a report; a HEAD trailing the newest
// segment by one is healed after the chain link checks out; a torn WAL
// tail is truncated at the last whole record with the dropped bytes
// reported. Recovery is exact or explicit, never silent invention.
//
// The checkpoint blob carried by each segment is produced by the owner
// (SetHooks' checkpoint) at seal time and must summarize every
// record up to and including that segment — it is what lets replay
// skip re-counting sealed records and what lets Compact drop old
// segments without losing all-time counters.
package archive

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	walMagic = 0x504c5741 // "PLWA"
	segMagic = 0x504c5347 // "PLSG"
	// Version is the on-disk format version of WAL and segment files.
	Version = 1

	walName    = "wal.log"
	headName   = "HEAD"
	segPrefix  = "seg-"
	walHdrLen  = 4 + 2 + 8
	segHdrLen  = 4 + 2 + 8 + sha256.Size + 8 + 4 + 4
	headPrefix = "plarchive v1\n"
)

// Options tunes an Archive.
type Options struct {
	// SealBytes seals the WAL into a segment once it holds at least
	// this many record bytes. 0 disables automatic sealing — segments
	// then appear only on explicit Seal calls.
	SealBytes int64
	// Sync fsyncs the WAL after every append. Off, durability of the
	// tail is bounded by the OS flush interval; sealed segments are
	// always synced before rename.
	Sync bool
	// NowUnix supplies segment seal timestamps; nil selects wall time.
	// Injectable so test fixtures are byte-reproducible.
	NowUnix func() int64
}

// An OpenReport says what Open found and what it had to do about it.
// Everything here is normal crash fallout, already healed — tampering
// and unhealable states make Open fail instead.
type OpenReport struct {
	// Segments and TailRecords describe the recovered state: sealed
	// segments on disk and live records in the WAL.
	Segments    int
	TailRecords int
	// DroppedTailBytes were truncated off the WAL because its last
	// record was torn or corrupt — the write the crash interrupted.
	DroppedTailBytes int64
	// StaleWALRecords were discarded because the WAL predates the
	// newest segment: the crash hit between segment rename and WAL
	// swap, so every one of them is already sealed.
	StaleWALRecords int
	// HealedHead is set when HEAD trailed the newest segment (crash
	// between WAL swap and HEAD rewrite) and was rewritten forward.
	HealedHead bool
}

// String renders the report for operator logs.
func (r OpenReport) String() string {
	s := fmt.Sprintf("%d segments, %d tail records", r.Segments, r.TailRecords)
	if r.DroppedTailBytes > 0 {
		s += fmt.Sprintf(", dropped %dB torn tail", r.DroppedTailBytes)
	}
	if r.StaleWALRecords > 0 {
		s += fmt.Sprintf(", discarded %d already-sealed WAL records", r.StaleWALRecords)
	}
	if r.HealedHead {
		s += ", healed HEAD"
	}
	return s
}

// SegmentInfo describes one sealed segment.
type SegmentInfo struct {
	Index      uint64
	Records    int
	Bytes      int64
	SealedUnix int64
	Hash       [sha256.Size]byte
	PrevHash   [sha256.Size]byte
}

// An Archive is an open archive directory. All methods are safe for
// concurrent use.
type Archive struct {
	dir string
	opt Options

	mu       sync.Mutex
	wal      *os.File
	walBytes int64 // record bytes in the WAL, excluding the header
	walRecs  int
	segs     []SegmentInfo // sorted by Index
	ckpt     []byte        // newest sealed segment's checkpoint blob
	closed   bool

	// onAppend and checkpoint are the owner's hooks (SetHooks).
	onAppend   func(Record)
	checkpoint func() []byte

	// failpoint, when set (tests only), is consulted between the
	// atomic steps of sealLocked to simulate a crash at that boundary.
	failpoint func(stage string) error
}

// Open opens (creating if needed) the archive directory, healing the
// crash windows described in the package comment. It fails loudly on
// anything heal rules cannot explain — a broken chain link, a HEAD
// that contradicts the newest segment, a gap in the segment sequence —
// because those are tampering or operator damage, not crash fallout.
func Open(dir string, opt Options) (*Archive, OpenReport, error) {
	var rep OpenReport
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rep, err
	}
	a := &Archive{dir: dir, opt: opt}
	if err := a.loadSegments(); err != nil {
		return nil, rep, err
	}
	if err := a.checkHead(&rep); err != nil {
		return nil, rep, err
	}
	if len(a.segs) > 0 {
		last := a.segs[len(a.segs)-1]
		blob, _, err := readSegment(segPath(a.dir, last.Index), last.Index)
		if err != nil {
			return nil, rep, err
		}
		a.ckpt = blob
	}
	if err := a.openWAL(&rep); err != nil {
		return nil, rep, err
	}
	rep.Segments = len(a.segs)
	rep.TailRecords = a.walRecs
	return a, rep, nil
}

// Dir returns the archive directory.
func (a *Archive) Dir() string { return a.dir }

// SetHooks installs the owner's hooks after Open, once the owner has
// read the recovered state. onAppend, when non-nil, observes every
// appended record under the archive lock, in append order — the hook a
// checkpoint producer uses to keep its summary exactly in step with
// the WAL. checkpoint, when non-nil, is called at seal time (under the
// archive lock, after the sealed records are fixed) and must return a
// blob summarizing every record appended so far. Call before
// concurrent use.
func (a *Archive) SetHooks(onAppend func(Record), checkpoint func() []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onAppend = onAppend
	a.checkpoint = checkpoint
}

// Segments returns the sealed segments, oldest first.
func (a *Archive) Segments() []SegmentInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]SegmentInfo(nil), a.segs...)
}

// TailRecords returns the number of live records in the WAL.
func (a *Archive) TailRecords() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.walRecs
}

// Checkpoint returns the newest sealed segment's checkpoint blob (nil
// when no segment exists or the owner seals without checkpoints).
func (a *Archive) Checkpoint() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.ckpt...)
}

// Append writes rec to the WAL, invokes the onAppend hook, and seals
// automatically when the WAL crosses Options.SealBytes.
func (a *Archive) Append(rec Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errors.New("archive: appending to closed archive")
	}
	buf, err := appendRecord(nil, rec)
	if err != nil {
		return err
	}
	if _, err := a.wal.Write(buf); err != nil {
		return fmt.Errorf("archive: wal append: %w", err)
	}
	if a.opt.Sync {
		if err := a.wal.Sync(); err != nil {
			return fmt.Errorf("archive: wal sync: %w", err)
		}
	}
	a.walBytes += int64(len(buf))
	a.walRecs++
	if a.onAppend != nil {
		a.onAppend(rec)
	}
	if a.opt.SealBytes > 0 && a.walBytes >= a.opt.SealBytes {
		return a.sealLocked()
	}
	return nil
}

// Seal seals the current WAL records into a new segment (a no-op on an
// empty WAL).
func (a *Archive) Seal() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errors.New("archive: sealing closed archive")
	}
	return a.sealLocked()
}

// Close syncs and closes the WAL. It does not seal: the tail is
// already durable and will be recovered (and eventually sealed) by the
// next Open.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		if a.wal != nil {
			a.wal.Close()
			a.wal = nil
		}
		return nil
	}
	a.closed = true
	if err := a.wal.Sync(); err != nil {
		a.wal.Close()
		return err
	}
	return a.wal.Close()
}

// Compact removes the oldest sealed segments until the retained sealed
// bytes fit maxBytes (0 = unlimited) and the oldest is younger than
// maxAge (0 = unlimited). The newest segment is never removed — its
// checkpoint carries the cumulative counters everything after depends
// on. It returns the removed segment indexes. The chain stays
// verifiable: each surviving segment still commits to its predecessor,
// the oldest survivor's back-pointer simply points outside retention.
func (a *Archive) Compact(maxBytes int64, maxAge time.Duration) ([]uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	var removed []uint64
	for len(a.segs) > 1 {
		over := false
		if maxBytes > 0 {
			var total int64
			for _, s := range a.segs {
				total += s.Bytes
			}
			over = over || total > maxBytes
		}
		if maxAge > 0 {
			over = over || now-a.segs[0].SealedUnix > int64(maxAge/time.Second)
		}
		if !over {
			break
		}
		victim := a.segs[0]
		if err := os.Remove(segPath(a.dir, victim.Index)); err != nil {
			return removed, err
		}
		a.segs = a.segs[1:]
		removed = append(removed, victim.Index)
	}
	return removed, nil
}

// ReplaySealed streams every record retained in sealed segments,
// oldest segment first, records in append order. These are exactly the
// records the newest checkpoint summarizes.
func (a *Archive) ReplaySealed(fn func(Record) error) error {
	for _, s := range a.Segments() {
		_, recs, err := readSegment(segPath(a.dir, s.Index), s.Index)
		if err != nil {
			return err
		}
		if _, _, err := scanRecords(recs, fn); err != nil {
			return fmt.Errorf("archive: segment %d: %w", s.Index, err)
		}
	}
	return nil
}

// ReplayTail streams the live WAL records, in append order — the
// records no checkpoint covers yet.
func (a *Archive) ReplayTail(fn func(Record) error) error {
	a.mu.Lock()
	path := filepath.Join(a.dir, walName)
	a.mu.Unlock()
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, recs, err := parseWAL(b)
	if err != nil {
		return err
	}
	if _, _, err := scanRecords(recs, fn); err != nil {
		return fmt.Errorf("archive: wal: %w", err)
	}
	return nil
}

func (a *Archive) now() int64 {
	if a.opt.NowUnix != nil {
		return a.opt.NowUnix()
	}
	return time.Now().Unix()
}

func segPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d", segPrefix, index))
}

// sealLocked is the three-step seal: segment rename, WAL swap, HEAD
// rewrite — each atomic, each a legal crash boundary.
func (a *Archive) sealLocked() error {
	if a.walRecs == 0 {
		return nil
	}
	walPath := filepath.Join(a.dir, walName)
	b, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	_, recs, err := parseWAL(b)
	if err != nil {
		return err
	}
	if consumed, n, err := scanRecords(recs, nil); err != nil || n != a.walRecs {
		return fmt.Errorf("archive: wal readback: %d/%d records, %d/%d bytes, %v",
			n, a.walRecs, consumed, len(recs), err)
	}

	index := uint64(1)
	var prev [sha256.Size]byte
	if n := len(a.segs); n > 0 {
		index = a.segs[n-1].Index + 1
		prev = a.segs[n-1].Hash
	}
	var ckpt []byte
	if a.checkpoint != nil {
		ckpt = a.checkpoint()
	}
	hdr := make([]byte, 0, segHdrLen)
	hdr = binary.BigEndian.AppendUint32(hdr, segMagic)
	hdr = binary.BigEndian.AppendUint16(hdr, Version)
	hdr = binary.BigEndian.AppendUint64(hdr, index)
	hdr = append(hdr, prev[:]...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(a.now()))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(a.walRecs))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(ckpt)))
	file := append(hdr, ckpt...)
	file = append(file, recs...)
	if err := writeAtomic(segPath(a.dir, index), file); err != nil {
		return err
	}
	info := SegmentInfo{
		Index:      index,
		Records:    a.walRecs,
		Bytes:      int64(len(file)),
		SealedUnix: int64(binary.BigEndian.Uint64(hdr[14+sha256.Size:])),
		Hash:       sha256.Sum256(file),
		PrevHash:   prev,
	}
	a.segs = append(a.segs, info)
	a.ckpt = ckpt
	if a.failpoint != nil {
		if err := a.failpoint("sealed-segment"); err != nil {
			a.closed = true
			return err
		}
	}
	if err := a.swapFreshWAL(index); err != nil {
		return err
	}
	if a.failpoint != nil {
		if err := a.failpoint("swapped-wal"); err != nil {
			a.closed = true
			return err
		}
	}
	return a.writeHead(info)
}

// swapFreshWAL atomically replaces the WAL with an empty one following
// segment index, and re-points the open handle at it.
func (a *Archive) swapFreshWAL(index uint64) error {
	hdr := make([]byte, 0, walHdrLen)
	hdr = binary.BigEndian.AppendUint32(hdr, walMagic)
	hdr = binary.BigEndian.AppendUint16(hdr, Version)
	hdr = binary.BigEndian.AppendUint64(hdr, index)
	walPath := filepath.Join(a.dir, walName)
	if err := writeAtomic(walPath, hdr); err != nil {
		return err
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if a.wal != nil {
		a.wal.Close()
	}
	a.wal = f
	a.walBytes, a.walRecs = 0, 0
	return nil
}

func (a *Archive) writeHead(s SegmentInfo) error {
	body := fmt.Sprintf("%s%d %x\n", headPrefix, s.Index, s.Hash)
	return writeAtomic(filepath.Join(a.dir, headName), []byte(body))
}

// loadSegments discovers, header-checks, and hashes every segment
// file, verifying name/header agreement, sequence contiguity, and the
// hash chain.
func (a *Archive) loadSegments() error {
	idxs, bad, err := listSegments(a.dir)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("archive: unparseable segment name %q", bad[0])
	}
	for i, idx := range idxs {
		if i > 0 && idx != idxs[i-1]+1 {
			return fmt.Errorf("archive: segment sequence gap: %d then %d", idxs[i-1], idx)
		}
		info, err := statSegment(segPath(a.dir, idx), idx)
		if err != nil {
			return err
		}
		if i > 0 && info.PrevHash != a.segs[len(a.segs)-1].Hash {
			return fmt.Errorf("archive: hash chain broken at segment %d", idx)
		}
		a.segs = append(a.segs, info)
	}
	return nil
}

// checkHead reconciles HEAD with the newest segment: exact match is
// healthy, trailing by one seal is healed, anything else is damage.
func (a *Archive) checkHead(rep *OpenReport) error {
	idx, hash, exists, err := readHead(a.dir)
	if err != nil {
		return err
	}
	if len(a.segs) == 0 {
		if exists {
			return fmt.Errorf("archive: HEAD names segment %d but no segments exist", idx)
		}
		return nil
	}
	newest := a.segs[len(a.segs)-1]
	switch {
	case exists && idx == newest.Index:
		if hash != newest.Hash {
			return fmt.Errorf("archive: HEAD hash mismatch for segment %d — sealed history was modified", idx)
		}
		return nil
	case exists && idx == newest.Index-1 && len(a.segs) >= 2:
		// Crash between WAL swap and HEAD rewrite. The chain link from
		// the HEAD-anchored segment to the newcomer was already checked
		// by loadSegments; re-check HEAD's own hash, then adopt.
		prev := a.segs[len(a.segs)-2]
		if hash != prev.Hash {
			return fmt.Errorf("archive: HEAD hash mismatch for segment %d — sealed history was modified", idx)
		}
	case !exists && len(a.segs) == 1:
		// Crash before the very first HEAD write.
	default:
		if !exists {
			return fmt.Errorf("archive: HEAD missing with %d segments", len(a.segs))
		}
		return fmt.Errorf("archive: HEAD names segment %d but newest is %d", idx, newest.Index)
	}
	if err := a.writeHead(newest); err != nil {
		return err
	}
	rep.HealedHead = true
	return nil
}

// openWAL opens or creates the WAL, discarding a stale one and
// truncating a torn tail, per the crash-window rules.
func (a *Archive) openWAL(rep *OpenReport) error {
	var newest uint64
	if n := len(a.segs); n > 0 {
		newest = a.segs[n-1].Index
	}
	walPath := filepath.Join(a.dir, walName)
	b, err := os.ReadFile(walPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return a.swapFreshWAL(newest)
	case err != nil:
		return err
	}
	after, recs, err := parseWAL(b)
	if err != nil {
		return err
	}
	switch {
	case after == newest:
		// The live WAL. Truncate a torn tail, keep the valid prefix.
		consumed, n, err := scanRecords(recs, nil)
		if err != nil && !errors.Is(err, errShortRecord) && !errors.Is(err, errCorruptRecord) {
			return err
		}
		good := walHdrLen + consumed
		if good < len(b) {
			if err := os.Truncate(walPath, int64(good)); err != nil {
				return err
			}
			rep.DroppedTailBytes = int64(len(b) - good)
		}
		f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		a.wal = f
		a.walBytes, a.walRecs = int64(consumed), n
		return nil
	case after == newest-1 && newest > 0:
		// Crash between segment rename and WAL swap: every record in
		// this WAL is already inside segment `newest`. Count for the
		// report, then discard.
		_, n, _ := scanRecords(recs, nil)
		rep.StaleWALRecords = n
		return a.swapFreshWAL(newest)
	default:
		return fmt.Errorf("archive: wal follows segment %d but newest segment is %d", after, newest)
	}
}

// listSegments returns the indexes of dir's seg-* files, ascending, and
// the seg-* names that do not parse as an index — which Open and Walk
// refuse and Verify reports.
func listSegments(dir string) (idxs []uint64, bad []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || e.IsDir() {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(name, segPrefix), 10, 64)
		if err != nil {
			bad = append(bad, name)
			continue
		}
		idxs = append(idxs, n)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, bad, nil
}

// parseWAL checks a WAL image's header and splits it into the segment
// index the WAL follows and its record region. The header is written
// atomically, so a short, foreign or future-version file was never
// this archive's WAL: nothing in it is attributable, and every reader
// refuses it rather than scan it for records.
func parseWAL(b []byte) (after uint64, recs []byte, err error) {
	if len(b) < walHdrLen {
		return 0, nil, fmt.Errorf("archive: %s is %d bytes, below its %d-byte header", walName, len(b), walHdrLen)
	}
	if binary.BigEndian.Uint32(b[0:4]) != walMagic {
		return 0, nil, fmt.Errorf("archive: %s has wrong magic", walName)
	}
	if v := binary.BigEndian.Uint16(b[4:6]); v != Version {
		return 0, nil, fmt.Errorf("archive: %s format version %d, want %d", walName, v, Version)
	}
	return binary.BigEndian.Uint64(b[6:walHdrLen]), b[walHdrLen:], nil
}

// statSegment reads and validates one segment file's header and
// structure (not its chain position) and returns its info.
func statSegment(path string, wantIndex uint64) (SegmentInfo, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return SegmentInfo{}, err
	}
	info, _, _, err := parseSegment(b, wantIndex)
	if err != nil {
		return SegmentInfo{}, fmt.Errorf("archive: %s: %w", filepath.Base(path), err)
	}
	return info, nil
}

// readSegment returns a segment's checkpoint blob and raw record bytes.
func readSegment(path string, wantIndex uint64) (ckpt, recs []byte, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	_, ckpt, recs, err = parseSegment(b, wantIndex)
	if err != nil {
		return nil, nil, fmt.Errorf("archive: %s: %w", filepath.Base(path), err)
	}
	return ckpt, recs, nil
}

// parseSegment validates a segment image: header sanity, index
// agreement, record-region integrity, and record count.
func parseSegment(b []byte, wantIndex uint64) (info SegmentInfo, ckpt, recs []byte, err error) {
	if len(b) < segHdrLen {
		return info, nil, nil, errors.New("truncated segment header")
	}
	if binary.BigEndian.Uint32(b[0:4]) != segMagic {
		return info, nil, nil, errors.New("wrong segment magic")
	}
	if v := binary.BigEndian.Uint16(b[4:6]); v != Version {
		return info, nil, nil, fmt.Errorf("segment format version %d, want %d", v, Version)
	}
	info.Index = binary.BigEndian.Uint64(b[6:14])
	if wantIndex != 0 && info.Index != wantIndex {
		return info, nil, nil, fmt.Errorf("segment header index %d disagrees with filename %d", info.Index, wantIndex)
	}
	copy(info.PrevHash[:], b[14:14+sha256.Size])
	off := 14 + sha256.Size
	info.SealedUnix = int64(binary.BigEndian.Uint64(b[off : off+8]))
	count := int(binary.BigEndian.Uint32(b[off+8 : off+12]))
	ckptLen := int(binary.BigEndian.Uint32(b[off+12 : off+16]))
	if segHdrLen+ckptLen > len(b) {
		return info, nil, nil, fmt.Errorf("checkpoint length %d overruns %d-byte segment", ckptLen, len(b))
	}
	ckpt = b[segHdrLen : segHdrLen+ckptLen]
	recs = b[segHdrLen+ckptLen:]
	if _, n, serr := scanRecords(recs, nil); serr != nil {
		return info, nil, nil, fmt.Errorf("record region: %w", serr)
	} else if n != count {
		return info, nil, nil, fmt.Errorf("header claims %d records, file holds %d", count, n)
	}
	info.Records = count
	info.Bytes = int64(len(b))
	info.Hash = sha256.Sum256(b)
	return info, ckpt, recs, nil
}

// readHead parses the HEAD file; exists is false when absent.
func readHead(dir string) (index uint64, hash [sha256.Size]byte, exists bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, headName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, hash, false, nil
	}
	if err != nil {
		return 0, hash, false, err
	}
	s, ok := strings.CutPrefix(string(b), headPrefix)
	if !ok {
		return 0, hash, false, errors.New("archive: malformed HEAD")
	}
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return 0, hash, false, errors.New("archive: malformed HEAD")
	}
	index, err = strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return 0, hash, false, errors.New("archive: malformed HEAD")
	}
	raw, err := hex.DecodeString(fields[1])
	if err != nil || len(raw) != sha256.Size {
		return 0, hash, false, errors.New("archive: malformed HEAD")
	}
	copy(hash[:], raw)
	return index, hash, true, nil
}

// writeAtomic writes data to path via temp file, fsync, and rename,
// then best-effort syncs the directory so the rename itself is
// durable.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
