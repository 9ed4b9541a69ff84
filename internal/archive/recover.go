package archive

import (
	"errors"
	"fmt"
)

// A Consumer is an archive owner's side of Recover: OpenStore's store
// and coord.OpenLog's log are the two.
type Consumer struct {
	// Seed takes in the newest checkpoint blob, lent for the call, when
	// one was sealed. An error means the blob is corrupt, or, when it is
	// ErrForeignCheckpoint, that another consumer wrote it; Seed must
	// then have changed nothing.
	Seed func(ckpt []byte) error
	// Apply takes in one recovered record, lent as Walk lends it;
	// counted is false only for a sealed record the seeded checkpoint
	// summarizes. It reports whether the consumer owns the record's kind
	// and whether it used the record. An error stops recovery.
	Apply func(r Record, counted bool) (owned, used bool, err error)
	// OnAppend, when non-nil, observes every appended record under the
	// archive lock, in append order, its Data lent from Append's frame.
	OnAppend func(Record)
	// Checkpoint, when non-nil, is called at seal time under the archive
	// lock and returns a blob summarizing every record appended so far.
	Checkpoint func() []byte
}

// ErrForeignCheckpoint is what a Consumer's Seed returns (wrapped or
// not) for a checkpoint another known consumer wrote: one that opens
// with that consumer's magic. Open has hash-checked the checkpoint file
// against its segment header, so such a blob is another consumer's
// summary, not damage; a directory two consumers seal keeps only the
// last sealer's.
var ErrForeignCheckpoint = errors.New("archive: checkpoint written by another consumer")

// A StoreReport extends OpenReport with what Recover found. OpenStore
// and coord.OpenLog both report in it.
type StoreReport struct {
	OpenReport
	// SealedRecords counts the sealed records of the consumer's kinds
	// that recovery applied; the WAL tail count is
	// OpenReport.TailRecords.
	SealedRecords int
	// ForeignRecords carry kinds the consumer does not own (e.g.
	// coordinator records sharing a store's directory); skipped, and
	// counted in sealed segments and the tail alike.
	ForeignRecords int
	// CheckpointCorrupt means the newest segment's checkpoint failed
	// to decode. All-time counters and digests were rebuilt by counted
	// replay of the retained records instead — exact unless Compact
	// has dropped segments, in which case the pre-compaction history
	// is missing from the counters (explicitly, never silently).
	CheckpointCorrupt bool
	// ForeignCheckpoint means the newest segment's checkpoint was
	// written by another consumer (ErrForeignCheckpoint): recovery
	// replayed counted, as for a corrupt one, but nothing is damaged.
	ForeignCheckpoint bool
}

// String renders the report for operator logs.
func (r StoreReport) String() string {
	s := r.OpenReport.String() + fmt.Sprintf(", %d sealed records", r.SealedRecords)
	if r.ForeignRecords > 0 {
		s += fmt.Sprintf(", %d foreign records skipped", r.ForeignRecords)
	}
	switch {
	case r.CheckpointCorrupt:
		s += ", checkpoint corrupt (counters rebuilt from retained records)"
	case r.ForeignCheckpoint:
		s += ", checkpoint written by another consumer (counters rebuilt from retained records)"
	}
	return s
}

// Recover opens the archive directory (Open) and rebuilds c's state
// from it, streaming the records through Walk, in the one recovery
// order: the newest checkpoint seeds c; sealed records apply uncounted
// if it did (counting them again would double-count) and counted if
// there was none or it is corrupt or foreign; the WAL tail applies
// counted; then c's OnAppend and Checkpoint become the archive's hooks.
func Recover(dir string, opt Options, c Consumer) (*Archive, StoreReport, error) {
	a, orep, err := Open(dir, opt)
	rep := StoreReport{OpenReport: orep}
	if err != nil {
		return nil, rep, err
	}
	seeded := false
	if len(a.ckpt) > 0 {
		err := c.Seed(a.ckpt)
		seeded = err == nil
		rep.ForeignCheckpoint = errors.Is(err, ErrForeignCheckpoint)
		rep.CheckpointCorrupt = !seeded && !rep.ForeignCheckpoint
	}
	err = Walk(dir, func(r Record, sealed bool) error {
		owned, used, err := c.Apply(r, !sealed || !seeded)
		switch {
		case !owned:
			rep.ForeignRecords++
		case sealed && used:
			rep.SealedRecords++
		}
		return err
	})
	if err != nil {
		a.Close()
		return nil, rep, err
	}
	a.onAppend, a.checkpoint = c.OnAppend, c.Checkpoint
	return a, rep, nil
}
