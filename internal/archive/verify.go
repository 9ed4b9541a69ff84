package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// A VerifyReport is the result of a read-only integrity walk over an
// archive directory. Problems are integrity violations — tampering or
// damage in sealed history or the anchors. A torn WAL tail is ordinary
// crash fallout, reported in WALTornBytes but never a Problem.
type VerifyReport struct {
	Dir      string
	Segments []SegmentVerify
	// SealedRecords and WALRecords count the verifiable records.
	SealedRecords int
	WALRecords    int
	// WALTornBytes is the length of the unverifiable WAL tail (0 for a
	// clean WAL).
	WALTornBytes int64
	// Problems lists every integrity violation found. Empty means the
	// archive verifies.
	Problems []string
}

// A SegmentVerify is one segment's verification outcome.
type SegmentVerify struct {
	Index   uint64
	Records int
	Bytes   int64
	Err     string // "" when the segment verifies in isolation
}

// OK reports whether the archive verified clean.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// String renders the report, one line per segment plus a summary.
func (r *VerifyReport) String() string {
	var b strings.Builder
	for _, s := range r.Segments {
		status := "ok"
		if s.Err != "" {
			status = s.Err
		}
		fmt.Fprintf(&b, "seg %8d  %6d records  %8d bytes  %s\n", s.Index, s.Records, s.Bytes, status)
	}
	fmt.Fprintf(&b, "wal            %6d records", r.WALRecords)
	if r.WALTornBytes > 0 {
		fmt.Fprintf(&b, "  (%d torn tail bytes — crash fallout, not tampering)", r.WALTornBytes)
	}
	b.WriteString("\n")
	if r.OK() {
		fmt.Fprintf(&b, "OK: %d sealed + %d tail records, hash chain and HEAD verify\n",
			r.SealedRecords, r.WALRecords)
	} else {
		for _, p := range r.Problems {
			fmt.Fprintf(&b, "FAIL: %s\n", p)
		}
	}
	return b.String()
}

// Verify walks an archive directory without modifying it: every
// segment's header, record CRCs, and whole-file SHA-256; the hash
// chain between consecutive segments; the HEAD anchor; the live
// checkpoint file against the newest segment's header; and the WAL
// framing. Because each segment's header commits to its predecessor's
// whole-file hash and to its checkpoint's, and HEAD commits to the
// newest, any flipped byte in sealed history or the live checkpoint
// breaks a link this walk checks. Checkpoint files no segment names
// are crash fallout Open removes, not problems. The error return is
// for an unreadable directory only — integrity findings go in the
// report.
func Verify(dir string) (*VerifyReport, error) {
	rep := &VerifyReport{Dir: dir}
	idxs, bad, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range bad {
		rep.Problems = append(rep.Problems, fmt.Sprintf("unparseable segment name %q", name))
	}

	var prev *SegmentInfo
	var prevHdr segHeader
	for i, idx := range idxs {
		sv := SegmentVerify{Index: idx}
		info, h, _, perr := scanSegment(segPath(dir, idx), idx, true, false, nil)
		sv.Bytes = info.Bytes
		if perr != nil {
			sv.Err = perr.Error()
			rep.Problems = append(rep.Problems, fmt.Sprintf("segment %d: %v", idx, perr))
			rep.Segments = append(rep.Segments, sv)
			prev = nil
			continue
		}
		prevHdr = h
		sv.Records = info.Records
		rep.SealedRecords += info.Records
		if i > 0 && idx != idxs[i-1]+1 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("segment sequence gap: %d then %d", idxs[i-1], idx))
		} else if prev != nil && info.PrevHash != prev.Hash {
			sv.Err = "chain link broken"
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("segment %d back-pointer does not match segment %d's hash — sealed history was modified", idx, prev.Index))
		}
		rep.Segments = append(rep.Segments, sv)
		prev = &info
	}

	headIdx, headHash, headExists, herr := readHead(dir)
	switch {
	case herr != nil:
		rep.Problems = append(rep.Problems, herr.Error())
	case prev == nil && headExists:
		rep.Problems = append(rep.Problems, fmt.Sprintf("HEAD names segment %d but no intact newest segment exists", headIdx))
	case prev != nil && !headExists:
		rep.Problems = append(rep.Problems, fmt.Sprintf("HEAD missing with %d segments", len(rep.Segments)))
	case prev != nil && headIdx == prev.Index && headHash != prev.Hash:
		rep.Problems = append(rep.Problems, fmt.Sprintf("HEAD hash mismatch for segment %d — sealed history was modified", prev.Index))
	case prev != nil && headIdx == prev.Index-1 && len(idxs) >= 2:
		// Legal crash window (heal pending): HEAD anchors the
		// predecessor; the chain link above already vouches for the
		// newest. Verify the anchor it does hold.
	case prev != nil && headIdx != prev.Index:
		rep.Problems = append(rep.Problems, fmt.Sprintf("HEAD names segment %d but newest is %d", headIdx, prev.Index))
	}

	if prev != nil && prevHdr.version != 1 && prevHdr.ckptLen > 0 {
		if _, err := readCheckpointFile(dir, prevHdr); err != nil {
			rep.Problems = append(rep.Problems, strings.TrimPrefix(err.Error(), "archive: "))
		}
	}

	rep.walVerify(idxs)
	return rep, nil
}

// walVerify checks the WAL's header and framing, tolerating (but
// measuring) a torn tail.
func (rep *VerifyReport) walVerify(idxs []uint64) {
	var newest uint64
	if len(idxs) > 0 {
		newest = idxs[len(idxs)-1]
	}
	err := readWAL(filepath.Join(rep.Dir, walName), func(after uint64, rr *recordReader) error {
		if after != newest && !(newest > 0 && after == newest-1) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("wal follows segment %d but newest segment is %d", after, newest))
		}
		err := rr.each(nil)
		rep.WALRecords = rr.n
		rep.WALTornBytes = rr.left
		if recordDefect(err) {
			return nil
		}
		return err
	})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		rep.Problems = append(rep.Problems, err.Error())
	}
}

// Walk streams every record in an archive directory read-only, sealed
// segments oldest first and then the WAL's valid prefix, calling
// fn(record, sealed). Unlike Open it never heals or truncates; like
// recovery it stops the WAL scan at the first unverifiable record.
// Each file is read once: a damaged segment fails the walk after fn
// has seen the records before the damage. It is the engine of
// `pathload-archive cat`.
func Walk(dir string, fn func(r Record, sealed bool) error) error {
	idxs, bad, err := listSegments(dir)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("archive: unparseable segment name %q", bad[0])
	}
	for _, idx := range idxs {
		if err := replaySegment(dir, idx, func(r Record) error { return fn(r, true) }); err != nil {
			return err
		}
	}
	err = readWAL(filepath.Join(dir, walName), func(_ uint64, rr *recordReader) error {
		err := rr.each(func(r Record) error { return fn(r, false) })
		if recordDefect(err) {
			return nil
		}
		return err
	})
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}
