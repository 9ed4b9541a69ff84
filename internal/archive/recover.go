package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A Consumer is an archive owner's side of Recover: OpenStore's store
// and coord.OpenLog's log are the two.
type Consumer struct {
	// Magic and Version, big-endian, open every checkpoint sealed for
	// the consumer, before the body Checkpoint appends.
	Magic   uint32
	Version uint16
	// Seed takes in the newest checkpoint's body, lent for the call,
	// when one was sealed under Magic and Version. An error means the
	// body is corrupt; Seed must then have changed nothing.
	Seed func(body []byte) error
	// Apply takes in one recovered record, lent as Walk lends it;
	// counted is false only for a sealed record the seeded checkpoint
	// summarizes. It reports whether the consumer owns the record's kind
	// and whether it used the record. An error stops recovery.
	Apply func(r Record, counted bool) (owned, used bool, err error)
	// OnAppend, when non-nil, observes every appended record under the
	// archive lock, in append order, its Data lent from Append's frame.
	OnAppend func(Record)
	// Checkpoint, when non-nil, is called at seal time under the archive
	// lock and appends to envelope a body summarizing every record
	// appended so far.
	Checkpoint func(envelope []byte) []byte
}

const envelopeLen = 6 // magic u32 | version u16

// ErrForeignCheckpoint is what a seal fails with when the live
// checkpoint opens with another magic than the archive's consumer's: a
// directory has one sealer. Open has hash-checked the checkpoint file,
// so such a blob is another consumer's summary, not damage.
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
	// ForeignCheckpoint means the newest segment's checkpoint opens
	// with another magic (ErrForeignCheckpoint): recovery replayed
	// counted, as for a corrupt one, but nothing is damaged.
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
// The envelope is judged here: another magic, or too few bytes for
// one, is foreign; c's magic at another version is corrupt.
func Recover(dir string, opt Options, c Consumer) (*Archive, StoreReport, error) {
	a, orep, err := Open(dir, opt)
	rep := StoreReport{OpenReport: orep}
	if err != nil {
		return nil, rep, err
	}
	seeded := false
	if len(a.ckpt) > 0 {
		own := len(a.ckpt) >= envelopeLen && binary.BigEndian.Uint32(a.ckpt) == c.Magic
		seeded = own && binary.BigEndian.Uint16(a.ckpt[4:]) == c.Version && c.Seed(a.ckpt[envelopeLen:]) == nil
		rep.ForeignCheckpoint, rep.CheckpointCorrupt = !own, own && !seeded
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
	a.onAppend, a.checkpoint, a.foreignCkpt = c.OnAppend, c.Checkpoint, rep.ForeignCheckpoint
	a.envelope = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint32(make([]byte, 0, envelopeLen), c.Magic), c.Version)
	return a, rep, nil
}
