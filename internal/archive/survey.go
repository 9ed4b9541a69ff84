package archive

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Open and Verify judge an archive directory by one set of rules,
// written here once and read in one pass (surveyDir):
//
//   - segment names parse and their indexes are contiguous;
//   - each segment reads clean and its back-pointer matches its
//     predecessor's hash;
//   - the newest segment's checkpoint file matches its header;
//   - HEAD names the newest segment by its hash, or trails it by one
//     seal with its own hash right, or is missing beside one segment;
//   - the WAL follows the newest segment or the one before it.
//
// What a crash leaves (package comment) is fallout, which Open heals;
// the rest is damage, which Open refuses and Verify reports.

// A survey is what one read of an archive directory found: the state
// Open adopts and every finding, in the order Open meets them.
type survey struct {
	segs     []surveyedSeg
	ckpt     []byte // the newest segment's checkpoint blob
	ckptFile uint64 // index of the live checkpoint file, 0 if none
	// walRecs and walBytes count the WAL's whole records; walTorn is
	// the length past them.
	walRecs  int
	walBytes int64
	walTorn  int64
	findings []finding
}

// A surveyedSeg is one seg-* file as the survey read it.
type surveyedSeg struct {
	info   SegmentInfo // Index and Bytes only, unless read
	read   bool        // header, records and whole-file hash read clean
	status string      // Verify's word on it; "" for ok
}

// A finding is one departure from a sound directory. Crash fallout
// carries heal, what Open does about it. Damage has none: err is how
// Open refuses the directory, problem how Verify reports it.
type finding struct {
	heal    func(a *Archive, rep *OpenReport) error
	err     error
	problem string
}

func (s *survey) damage(err error, problem string) {
	s.findings = append(s.findings, finding{err: err, problem: problem})
}

// refuse records damage that Verify words as Open does, less the
// package prefix.
func (s *survey) refuse(format string, args ...any) {
	s.damage(fmt.Errorf("archive: "+format, args...), fmt.Sprintf(format, args...))
}

func (s *survey) fallout(heal func(a *Archive, rep *OpenReport) error) {
	s.findings = append(s.findings, finding{heal: heal})
}

// surveyDir reads the archive directory dir once — every segment, the
// live checkpoint file, HEAD and the WAL — and judges it by the
// directory rules. The error return is for a directory it cannot list.
func surveyDir(dir string) (*survey, error) {
	idxs, bad, ckpts, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	s := &survey{}
	for _, name := range bad {
		s.refuse("unparseable segment name %q", name)
	}
	var newest segHeader
	for i, idx := range idxs {
		path := segPath(dir, idx)
		info, h, err := scanSegment(path, idx, true, nil, nil)
		info.Index = idx
		newest = h // the last segment's header stands
		seg := surveyedSeg{info: info, read: err == nil}
		linked := i > 0 && idx == idxs[i-1]+1
		if i > 0 && !linked {
			s.refuse("segment sequence gap: %d then %d", idxs[i-1], idx)
		}
		switch {
		case err != nil:
			seg.status = err.Error()
			s.damage(fmt.Errorf("archive: %s: %w", filepath.Base(path), err), fmt.Sprintf("segment %d: %v", idx, err))
		case linked && s.segs[i-1].read && info.PrevHash != s.segs[i-1].info.Hash:
			seg.status = "chain link broken"
			s.damage(fmt.Errorf("archive: hash chain broken at segment %d", idx),
				fmt.Sprintf("segment %d back-pointer does not match segment %d's hash — sealed history was modified", idx, idxs[i-1]))
		}
		s.segs = append(s.segs, seg)
	}
	live := ""
	if n := len(s.segs); n > 0 && s.segs[n-1].read && newest.ckptLen > 0 {
		live = filepath.Base(ckptPath(dir, newest.index))
		ckpt, err := readCheckpointFile(dir, newest)
		if err != nil {
			s.damage(err, strings.TrimPrefix(err.Error(), "archive: "))
		}
		s.ckpt, s.ckptFile = ckpt, newest.index
	}
	s.judgeHead(dir)
	s.judgeWAL(dir)
	for _, name := range ckpts {
		if name != live {
			s.fallout(func(a *Archive, rep *OpenReport) error {
				if err := os.Remove(filepath.Join(a.dir, name)); err != nil {
					return err
				}
				rep.RemovedCheckpoints++
				return nil
			})
		}
	}
	return s, nil
}

// judgeHead holds HEAD to the newest segment, or to the one before it
// when HEAD trails by one seal. A segment that did not read has no
// hash to hold HEAD to; its own damage stands.
func (s *survey) judgeHead(dir string) {
	idx, hash, exists, err := readHead(dir)
	n := len(s.segs)
	switch {
	case err != nil:
		s.damage(err, err.Error())
		return
	case n == 0:
		if exists {
			s.refuse("HEAD names segment %d but no segments exist", idx)
		}
		return
	}
	newest := s.segs[n-1].info
	anchor := s.segs[n-1]
	trailing := exists && n >= 2 && idx == newest.Index-1 && s.segs[n-2].info.Index == idx
	if trailing {
		anchor = s.segs[n-2]
	}
	switch {
	case !exists && n > 1:
		s.refuse("HEAD missing with %d segments", n)
	case exists && idx != anchor.info.Index:
		s.refuse("HEAD names segment %d but newest is %d", idx, newest.Index)
	case !anchor.read: // no hash to hold HEAD to
	case exists && hash != anchor.info.Hash:
		s.refuse("HEAD hash mismatch for segment %d — sealed history was modified", idx)
	case trailing || !exists:
		s.fallout(func(a *Archive, rep *OpenReport) error {
			if err := a.writeHead(newest); err != nil {
				return err
			}
			rep.HealedHead = true
			return nil
		})
	}
}

// judgeWAL holds the WAL's afterSeg to the newest segment or the one
// before it.
func (s *survey) judgeWAL(dir string) {
	var newest uint64
	if n := len(s.segs); n > 0 {
		newest = s.segs[n-1].info.Index
	}
	path := filepath.Join(dir, walName)
	err := readWAL(path, func(after uint64, rr *recordReader) error {
		if err := rr.each(nil); err != nil && !recordDefect(err) {
			return err
		}
		s.walRecs, s.walBytes, s.walTorn = rr.n, rr.off, rr.left
		switch {
		case after == newest:
			if torn := rr.left; torn > 0 {
				s.fallout(func(a *Archive, rep *OpenReport) error {
					rep.DroppedTailBytes = torn
					return os.Truncate(path, walHdrLen+a.walBytes)
				})
			}
		case after == newest-1 && newest > 0:
			stale := rr.n
			s.fallout(func(a *Archive, rep *OpenReport) error {
				rep.StaleWALRecords = stale
				return a.swapFreshWAL(newest)
			})
		default:
			s.refuse("wal follows segment %d but newest segment is %d", after, newest)
		}
		return nil
	})
	switch {
	case errors.Is(err, os.ErrNotExist):
		s.fallout(func(a *Archive, _ *OpenReport) error { return a.swapFreshWAL(newest) })
	case err != nil:
		s.damage(err, err.Error())
	}
}

// listSegments returns the indexes of dir's seg-* files, ascending; the
// seg-* names that do not parse as an index, which Open and Walk refuse
// and Verify reports; and the names of its ckpt-<index> files. Files by
// other names are not the archive's.
func listSegments(dir string) (idxs []uint64, bad, ckpts []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if idx, ok := strings.CutPrefix(name, ckptPrefix); ok {
			if _, err := strconv.ParseUint(idx, 10, 64); err == nil {
				ckpts = append(ckpts, name)
			}
			continue
		}
		if !strings.HasPrefix(name, segPrefix) {
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
	return idxs, bad, ckpts, nil
}

// readCheckpointFile reads the checkpoint file a segment header h
// names, into a buffer of exactly its length. A missing file, or one
// whose length or SHA-256 differs from the header's, is an error: no
// crash leaves either.
func readCheckpointFile(dir string, h segHeader) ([]byte, error) {
	path := ckptPath(dir, h.index)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("archive: %s, the checkpoint segment %d commits to, is missing", filepath.Base(path), h.index)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	mismatch := fmt.Errorf("archive: %s differs from the checkpoint segment %d commits to — sealed history was modified",
		filepath.Base(path), h.index)
	if fi.Size() != h.ckptLen {
		return nil, mismatch
	}
	b := make([]byte, h.ckptLen)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", filepath.Base(path), err)
	}
	if sha256.Sum256(b) != h.ckptHash {
		return nil, mismatch
	}
	return b, nil
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
	malformed := errors.New("archive: malformed HEAD")
	s, ok := strings.CutPrefix(string(b), headPrefix)
	fields := strings.Fields(s)
	if !ok || len(fields) != 2 {
		return 0, hash, false, malformed
	}
	index, err = strconv.ParseUint(fields[0], 10, 64)
	raw, herr := hex.DecodeString(fields[1])
	if err != nil || herr != nil || len(raw) != sha256.Size {
		return 0, hash, false, malformed
	}
	copy(hash[:], raw)
	return index, hash, true, nil
}
