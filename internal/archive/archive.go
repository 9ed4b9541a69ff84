// Package archive is the durable tier behind tsstore: an append-only
// write-ahead log of Records, periodically sealed into immutable,
// hash-chained segment files, beside one live cumulative checkpoint.
// It is what makes a monitored fleet's history survive the process —
// and trustworthy after it: every sealed segment's header commits to
// the SHA-256 of its predecessor's whole file and to its checkpoint's,
// a HEAD file anchors the newest hash, and a cheap chain walk (Verify)
// detects any flipped byte in sealed history or the live checkpoint.
// The shape follows the off-chain-data / on-chain-hash split of
// audit-log systems: bulk records live in ordinary files; integrity
// lives in one 32-byte chain head.
//
// Layout of an archive directory:
//
//	wal.log        walMagic u32 | version u16 (1) | afterSeg u64 | records…
//	seg-NNNNNNNN   segMagic u32 | version u16 (2) | index u64 | prevHash 32B |
//	               sealedUnix i64 | recordCount u32 | ckptLen u32 |
//	               ckptHash 32B | records…
//	ckpt-NNNNNNNN  the checkpoint blob of segment NNNNNNNN, ckptLen bytes
//	               whose SHA-256 is ckptHash; only the newest segment's
//	               is kept, and none when ckptLen is 0
//	HEAD           "plarchive v1\n<index> <sha256 hex>\n"
//
// A reader reads one generation of every form: segment version 2 and
// the record kinds and checkpoint version its consumers write today. A
// segment of another version is refused by its version ("segment
// format version 1, want 2"), a record of a kind no consumer owns is
// counted as foreign, and a checkpoint of another version is reported
// corrupt, its counters rebuilt by counted replay: an archive of
// another generation fails or is counted, never misread.
//
// The WAL header's afterSeg names the newest segment the WAL follows;
// it is what makes crash windows around sealing unambiguous. Sealing
// writes the new checkpoint file, then the new segment, swaps in a
// fresh WAL, rewrites HEAD and removes the checkpoint file the new one
// replaces — each write an atomic temp+rename — so a crash leaves one
// of five states, and Open heals or reports each explicitly: a
// checkpoint file no segment names (an orphan from before the segment
// rename, or the replaced one) is removed with a report; a WAL whose
// afterSeg trails the newest segment is stale (its records were
// sealed) and is discarded with a report; a HEAD trailing the newest
// segment by one is healed after the chain link checks out; a torn WAL
// tail is truncated at the last whole record with the dropped bytes
// reported. Recovery is exact or explicit, never silent invention. No
// crash leaves the newest segment's checkpoint file missing or other
// than its header says, so Open and Verify treat either as damage to
// sealed history, as they treat a broken chain link.
//
// The checkpoint blob is the envelope of the Consumer the archive was
// recovered with (its magic u32 | version u16, judged by Recover alone)
// and a body its Checkpoint hook appends at seal time, summarizing
// every record up to and including that segment — it is what lets
// Recover skip re-counting sealed records and what lets Compact drop
// old segments without losing all-time counters. Only the newest one
// is ever read, so a seal replaces it rather than keeping one per
// segment: what a directory holds grows with its records, not with
// paths × seals, and a directory has one sealer.
package archive

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	walMagic = 0x504c5741 // "PLWA"
	segMagic = 0x504c5347 // "PLSG"
	// Version is the on-disk format version of the WAL.
	Version = 1
	// segVersion is the format version of segments: 2, whose header
	// commits to the checkpoint file beside it by its SHA-256. Open,
	// Verify and Walk refuse any other.
	segVersion = 2

	walName    = "wal.log"
	headName   = "HEAD"
	segPrefix  = "seg-"
	ckptPrefix = "ckpt-"
	walHdrLen  = 4 + 2 + 8
	segHdrLen  = 4 + 2 + 8 + sha256.Size + 8 + 4 + 4 + sha256.Size
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
	// RemovedCheckpoints counts the checkpoint files Open removed
	// because the newest segment does not name them: an orphan written
	// by a seal that crashed before its segment rename, or the one a
	// seal that crashed before removing it had replaced.
	RemovedCheckpoints int
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
	if r.RemovedCheckpoints > 0 {
		s += fmt.Sprintf(", removed %d unnamed checkpoint files", r.RemovedCheckpoints)
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
	ckptFile uint64        // index of the live checkpoint file, 0 if none
	frame    []byte        // Append's record frame, reused
	closed   bool

	// The owner's hooks and checkpoint envelope (Consumer's, set by
	// Recover); foreignCkpt: the live checkpoint is another's (see Seal).
	onAppend    func(Record)
	checkpoint  func(envelope []byte) []byte
	envelope    []byte
	foreignCkpt bool

	// failpoint, when set (tests only), is consulted between the
	// atomic steps of sealLocked to simulate a crash at that boundary.
	failpoint func(stage string) error
}

// Open opens (creating if needed) the archive directory, healing the
// crash windows described in the package comment. It fails loudly on
// anything heal rules cannot explain — a broken chain link, a HEAD
// that contradicts the newest segment, a gap in the segment sequence —
// because those are tampering or operator damage, not crash fallout.
// It judges the directory by the rules Verify does (survey.go) and
// heals only once it has found no damage.
func Open(dir string, opt Options) (*Archive, OpenReport, error) {
	var rep OpenReport
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rep, err
	}
	s, err := surveyDir(dir)
	if err != nil {
		return nil, rep, err
	}
	for _, f := range s.findings {
		if f.heal == nil {
			return nil, rep, f.err
		}
	}
	a := &Archive{dir: dir, opt: opt, ckpt: s.ckpt, ckptFile: s.ckptFile, walBytes: s.walBytes, walRecs: s.walRecs}
	for _, seg := range s.segs {
		a.segs = append(a.segs, seg.info)
	}
	for _, f := range s.findings {
		err = f.heal(a, &rep)
		if err != nil {
			break
		}
	}
	if err == nil && a.wal == nil { // no heal replaced the live WAL: append to it
		a.wal, err = os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		if a.wal != nil {
			a.wal.Close()
		}
		return nil, rep, err
	}
	rep.Segments = len(a.segs)
	rep.TailRecords = a.walRecs
	return a, rep, nil
}

// Dir returns the archive directory.
func (a *Archive) Dir() string { return a.dir }

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

// Append writes rec to the WAL in one write, invokes the onAppend
// hook, and seals automatically when the WAL crosses
// Options.SealBytes. Nothing is buffered in the process: once Append
// returns nil the record is in the file, and with Options.Sync on the
// disk.
func (a *Archive) Append(rec Record) error {
	return a.appendEncoded(rec.Kind, rec.Key, func(b []byte) []byte { return append(b, rec.Data...) })
}

// appendEncoded is Append of a record of kind and key whose payload
// data appends to the slice it is handed: data encodes it once,
// straight into the archive's frame buffer, under the archive lock.
func (a *Archive) appendEncoded(kind uint8, key string, data func([]byte) []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errors.New("archive: appending to closed archive")
	}
	buf, err := appendFrame(a.frame[:0], kind, key, data)
	if err != nil {
		return err
	}
	a.frame = buf
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
		a.onAppend(Record{Kind: kind, Key: key, Data: buf[8+len(key) : len(buf)-4 : len(buf)-4]})
	}
	if a.opt.SealBytes > 0 && a.walBytes >= a.opt.SealBytes {
		return a.sealLocked()
	}
	return nil
}

// Seal seals the current WAL records into a new segment (a no-op on an
// empty WAL). Over another consumer's live checkpoint (Recover's
// ForeignCheckpoint) it, and an automatic seal, fail with
// ErrForeignCheckpoint before writing anything.
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

func (a *Archive) now() int64 {
	if a.opt.NowUnix != nil {
		return a.opt.NowUnix()
	}
	return time.Now().Unix()
}

func segPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d", segPrefix, index))
}

func ckptPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d", ckptPrefix, index))
}

// sealLocked is the five-step seal: checkpoint file rename, segment
// rename, WAL swap, HEAD rewrite, removal of the replaced checkpoint
// file — each atomic, each a legal crash boundary. The header is built
// before anything is written, so a count it cannot hold fails the seal
// with the directory untouched. The segment is written by streaming
// the WAL's records into it, one record at a time, checking each one's
// CRC and the count on the way.
func (a *Archive) sealLocked() error {
	if a.walRecs == 0 {
		return nil
	}
	if a.foreignCkpt {
		return fmt.Errorf("archive: seal refused: %w", ErrForeignCheckpoint)
	}
	h := segHeader{index: 1, sealedUnix: a.now(), records: int64(a.walRecs)}
	if n := len(a.segs); n > 0 {
		h.index = a.segs[n-1].Index + 1
		h.prevHash = a.segs[n-1].Hash
	}
	var ckpt []byte
	if a.checkpoint != nil {
		ckpt = a.checkpoint(a.envelope)
	}
	if h.ckptLen = int64(len(ckpt)); h.ckptLen > 0 {
		h.ckptHash = sha256.Sum256(ckpt)
	}
	hdr, err := appendSegHeader(make([]byte, 0, segHdrLen), h)
	if err != nil {
		return err
	}
	if h.ckptLen > 0 {
		if err := writeAtomic(ckptPath(a.dir, h.index), writeBytes(ckpt)); err != nil {
			return err
		}
		if err := a.fail("wrote-checkpoint"); err != nil {
			return err
		}
	}
	info := SegmentInfo{Index: h.index, Records: a.walRecs, SealedUnix: h.sealedUnix, PrevHash: h.prevHash}
	sum := sha256.New()
	err = writeAtomic(segPath(a.dir, h.index), func(f io.Writer) error {
		bw := bufio.NewWriterSize(f, fileBufSize)
		w := io.MultiWriter(bw, sum)
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		err := readWAL(filepath.Join(a.dir, walName), func(_ uint64, rr *recordReader) error {
			frame, err := rr.next()
			for ; err == nil; frame, err = rr.next() {
				if _, err := w.Write(frame); err != nil {
					return err
				}
			}
			if err == io.EOF && rr.n == a.walRecs {
				info.Bytes = segHdrLen + rr.off
				return nil
			}
			if err == io.EOF {
				err = nil
			}
			return fmt.Errorf("archive: wal readback: %d/%d records, %d/%d bytes, %v",
				rr.n, a.walRecs, rr.off, rr.off+rr.left, err)
		})
		if err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		if h.ckptLen > 0 { // no segment names it: leave the directory as it was
			os.Remove(ckptPath(a.dir, h.index))
		}
		return err
	}
	sum.Sum(info.Hash[:0])
	a.segs = append(a.segs, info)
	if cap(ckpt) > len(ckpt) { // hold the blob, not the hook's spare capacity
		ckpt = append(make([]byte, 0, len(ckpt)), ckpt...)
	}
	a.ckpt = ckpt
	replaced := a.ckptFile
	a.ckptFile = 0
	if h.ckptLen > 0 {
		a.ckptFile = h.index
	}
	// The segment is in place. A failure from here on leaves the
	// directory in one of the crash windows Open heals (a stale WAL, a
	// trailing HEAD) — but an open archive would go on appending into a
	// WAL the next Open may discard. Stop as a crash would.
	if err := a.swapAndAnchor(info); err != nil {
		a.closed = true
		return err
	}
	// Nothing reads the replaced checkpoint any more. Should removing it
	// fail, the archive is sound and the next Open removes it.
	if err := a.fail("anchored-head"); err != nil {
		return err
	}
	if replaced != 0 {
		if err := os.Remove(ckptPath(a.dir, replaced)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// fail consults the failpoint (tests only) at a seal step boundary.
func (a *Archive) fail(stage string) error {
	if a.failpoint == nil {
		return nil
	}
	return a.failpoint(stage)
}

// swapAndAnchor is the third and fourth step of a seal: swap in a
// fresh WAL following the new segment, then rewrite HEAD to it.
func (a *Archive) swapAndAnchor(info SegmentInfo) error {
	if err := a.fail("sealed-segment"); err != nil {
		return err
	}
	if err := a.swapFreshWAL(info.Index); err != nil {
		return err
	}
	if err := a.fail("swapped-wal"); err != nil {
		return err
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
	if err := writeAtomic(walPath, writeBytes(hdr)); err != nil {
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
	return writeAtomic(filepath.Join(a.dir, headName), writeBytes([]byte(body)))
}

// readWAL opens the WAL at path, checks its header, and hands read
// the segment index the WAL follows and a reader over its records. The
// header is written atomically, so a short, foreign or future-version
// file was never this archive's WAL: nothing in it is attributable,
// and every reader refuses it rather than scan it for records.
func readWAL(path string, read func(after uint64, rr *recordReader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < walHdrLen {
		return fmt.Errorf("archive: %s is %d bytes, below its %d-byte header", walName, fi.Size(), walHdrLen)
	}
	br := bufio.NewReaderSize(f, fileBufSize)
	var hdr [walHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("archive: %s header: %w", walName, err)
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != walMagic {
		return fmt.Errorf("archive: %s has wrong magic", walName)
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != Version {
		return fmt.Errorf("archive: %s format version %d, want %d", walName, v, Version)
	}
	return read(binary.BigEndian.Uint64(hdr[6:walHdrLen]), &recordReader{r: br, left: fi.Size() - walHdrLen})
}

// A segHeader is a segment file's header. The checkpoint blob is the
// file ckpt-<index>, ckptLen bytes whose SHA-256 is ckptHash; the
// records follow the header.
type segHeader struct {
	index      uint64
	prevHash   [sha256.Size]byte
	sealedUnix int64
	records    int64
	ckptLen    int64
	ckptHash   [sha256.Size]byte
}

// appendSegHeader appends h to b. A record count or checkpoint length
// that its u32 field cannot hold is an error, and b comes back
// unchanged: a header that misstated its own file would be sealed into
// the chain for good.
func appendSegHeader(b []byte, h segHeader) ([]byte, error) {
	if h.records < 0 || h.records > math.MaxUint32 {
		return b, fmt.Errorf("archive: %d records do not fit a segment header", h.records)
	}
	if h.ckptLen < 0 || h.ckptLen > math.MaxUint32 {
		return b, fmt.Errorf("archive: a %d-byte checkpoint does not fit a segment header", h.ckptLen)
	}
	b = binary.BigEndian.AppendUint32(b, segMagic)
	b = binary.BigEndian.AppendUint16(b, segVersion)
	b = binary.BigEndian.AppendUint64(b, h.index)
	b = append(b, h.prevHash[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(h.sealedUnix))
	b = binary.BigEndian.AppendUint32(b, uint32(h.records))
	b = binary.BigEndian.AppendUint32(b, uint32(h.ckptLen))
	return append(b, h.ckptHash[:]...), nil
}

// parseSegHeader parses the segment header at the start of b; b may
// run on past it.
func parseSegHeader(b []byte) (h segHeader, err error) {
	if len(b) < 6 {
		return h, errors.New("truncated segment header")
	}
	if binary.BigEndian.Uint32(b[0:4]) != segMagic {
		return h, errors.New("wrong segment magic")
	}
	if v := binary.BigEndian.Uint16(b[4:6]); v != segVersion {
		return h, fmt.Errorf("segment format version %d, want %d", v, segVersion)
	}
	if len(b) < segHdrLen {
		return h, errors.New("truncated segment header")
	}
	h.index = binary.BigEndian.Uint64(b[6:14])
	copy(h.prevHash[:], b[14:14+sha256.Size])
	off := 14 + sha256.Size
	h.sealedUnix = int64(binary.BigEndian.Uint64(b[off : off+8]))
	h.records = int64(binary.BigEndian.Uint32(b[off+8 : off+12]))
	h.ckptLen = int64(binary.BigEndian.Uint32(b[off+12 : off+16]))
	copy(h.ckptHash[:], b[off+16:segHdrLen])
	return h, nil
}

// scanSegment reads the segment file at path in one pass, holding one
// record at a time: it checks the header (against wantIndex, when not
// 0), every record's frame and CRC, and the header's record count, and
// returns the segment's info and header. With hashed set it also fills
// info.Hash, the SHA-256 of the whole file. fn, when non-nil, is
// handed each record in order, its key made a string by keys (a fresh
// table when nil). Errors do not name the file; info.Bytes is set once
// the file is open.
func scanSegment(path string, wantIndex uint64, hashed bool, keys keyTable, fn func(Record) error) (info SegmentInfo, h segHeader, err error) {
	f, err := os.Open(path)
	if err != nil {
		return info, h, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return info, h, err
	}
	size := fi.Size()
	info.Bytes = size
	var src io.Reader = f
	var sum hash.Hash
	if hashed {
		sum = sha256.New()
		src = io.TeeReader(f, sum)
	}
	br := bufio.NewReaderSize(src, fileBufSize)

	peek, err := br.Peek(int(min(size, segHdrLen)))
	if err != nil {
		return info, h, err
	}
	if h, err = parseSegHeader(peek); err != nil {
		return info, h, err
	}
	if wantIndex != 0 && h.index != wantIndex {
		return info, h, fmt.Errorf("segment header index %d disagrees with filename %d", h.index, wantIndex)
	}
	info.Index, info.PrevHash, info.SealedUnix = h.index, h.prevHash, h.sealedUnix
	br.Discard(segHdrLen)
	rr := recordReader{r: br, left: size - segHdrLen, keys: keys}
	if err := rr.each(fn); err != nil {
		return info, h, fmt.Errorf("record region: %w", err)
	}
	if int64(rr.n) != h.records {
		return info, h, fmt.Errorf("header claims %d records, file holds %d", h.records, rr.n)
	}
	info.Records = rr.n
	if sum != nil {
		sum.Sum(info.Hash[:0])
	}
	return info, h, nil
}

// writeAtomic writes a file at path through write, via temp file,
// fsync, and rename, then best-effort syncs the directory so the
// rename itself is durable. If anything fails, the temp file is
// removed and path is untouched.
func writeAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// writeBytes is a writeAtomic body that writes b.
func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}
