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
// breaks a link this walk checks. It judges the directory by the rules
// Open does (survey.go): whatever Open would heal — a torn or stale
// WAL, a trailing or first-seal HEAD, a checkpoint file no segment
// names — is crash fallout, not a problem. The error return is for an
// unreadable directory only — integrity findings go in the report.
func Verify(dir string) (*VerifyReport, error) {
	s, err := surveyDir(dir)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{Dir: dir, WALRecords: s.walRecs, WALTornBytes: s.walTorn}
	for _, seg := range s.segs {
		rep.Segments = append(rep.Segments, SegmentVerify{Index: seg.info.Index, Records: seg.info.Records, Bytes: seg.info.Bytes, Err: seg.status})
		rep.SealedRecords += seg.info.Records
	}
	for _, f := range s.findings {
		if f.heal == nil {
			rep.Problems = append(rep.Problems, f.problem)
		}
	}
	return rep, nil
}

// Walk streams every record in an archive directory read-only, sealed
// segments oldest first and then the WAL's valid prefix, calling
// fn(record, sealed). It never heals or truncates, but it stops the WAL
// scan at the first unverifiable record, where Open would cut the WAL.
// Each file is read once: a damaged segment fails the walk after fn
// has seen the records before the damage. Each record lends its Data
// until fn returns (see Record). It is the engine of Recover, which
// walks a directory Open has just healed, and of `pathload-archive cat`.
func Walk(dir string, fn func(r Record, sealed bool) error) error {
	idxs, bad, _, err := listSegments(dir)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("archive: unparseable segment name %q", bad[0])
	}
	keys := keyTable{}
	for _, idx := range idxs {
		var fnErr error
		_, _, err := scanSegment(segPath(dir, idx), idx, false, keys, func(r Record) error {
			fnErr = fn(r, true)
			return fnErr
		})
		switch {
		case fnErr != nil:
			return fmt.Errorf("archive: segment %d: %w", idx, fnErr)
		case err != nil:
			return fmt.Errorf("archive: %s: %w", filepath.Base(segPath(dir, idx)), err)
		}
	}
	err = readWAL(filepath.Join(dir, walName), func(_ uint64, rr *recordReader) error {
		rr.keys = keys
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
