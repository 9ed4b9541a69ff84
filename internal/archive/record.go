package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// A Record is one appended archive entry: an opaque payload under a
// small routing header. The archive core does not interpret Kind, Key,
// or Data — the tsstore adapter (KindPointCompact, KindLink)
// and the coordinator's persistence log define their own kinds over the
// same framing, so one directory can hold a mixed durability stream.
//
// A Record the archive hands to a callback (Walk, a Consumer's Apply
// or OnAppend) lends its Data for the duration of the call: the bytes
// are the reader's frame buffer, which the next record overwrites. A
// callback that keeps them copies them. Its Key is an ordinary string,
// the caller's to keep.
type Record struct {
	// Kind routes the record to its decoder. Kinds 0x01–0x1f are
	// reserved for the tsstore adapter, 0x20–0x2f for the coordinator.
	Kind uint8
	// Key scopes the record (a path, link, or agent name); at most
	// MaxKey bytes.
	Key string
	// Data is the payload; at most MaxData bytes.
	Data []byte
}

const (
	// recMagic opens every record frame; a scan landing on anything
	// else is off the rails and stops.
	recMagic = 0xA5
	// recOverhead is the framing cost per record: magic, kind, key
	// length (u16), data length (u32), trailing CRC-32 (u32).
	recOverhead = 1 + 1 + 2 + 4 + 4
	// MaxKey bounds Record.Key (the u16 length field's range).
	MaxKey = 1<<16 - 1
	// MaxData bounds Record.Data. The bound exists so a corrupt length
	// field reads as corruption, not as a 4 GiB allocation.
	MaxData = 4 << 20
)

// errShortRecord means the buffer ends mid-record: a torn tail, the
// expected artifact of a crash during append.
var errShortRecord = errors.New("archive: truncated record")

// errCorruptRecord means the bytes at the cursor are not a valid
// record: bad magic, an impossible length, or a CRC mismatch.
var errCorruptRecord = errors.New("archive: corrupt record")

// appendFrame appends to buf the frame of a record of kind and key
// whose payload is what data appends to the slice it is handed:
//
//	magic u8 | kind u8 | keyLen u16 | dataLen u32 | key | data | crc u32
//
// (big-endian lengths; the CRC-32 (IEEE) covers everything before it).
// The payload is encoded once, in place, rather than into a slice of
// its own and then copied. On an error buf comes back at its old
// length.
func appendFrame(buf []byte, kind uint8, key string, data func([]byte) []byte) ([]byte, error) {
	if len(key) > MaxKey {
		return buf, fmt.Errorf("archive: record key %d bytes exceeds %d", len(key), MaxKey)
	}
	start := len(buf)
	buf = append(buf, recMagic, kind, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(buf[start+2:], uint16(len(key)))
	buf = data(append(buf, key...))
	n := len(buf) - start - 8 - len(key)
	if n > MaxData {
		return buf[:start], fmt.Errorf("archive: record data %d bytes exceeds %d", n, MaxData)
	}
	binary.BigEndian.PutUint32(buf[start+4:], uint32(n))
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:])), nil
}

// A keyTable makes record keys strings, each distinct key once: a
// replay pass shares one across its files, so the key every record of
// a path repeats costs one string, not one per record.
type keyTable map[string]string

// intern returns the string for key b, made on its first sighting.
func (t keyTable) intern(b []byte) string {
	if k, ok := t[string(b)]; ok {
		return k
	}
	k := string(b)
	t[k] = k
	return k
}

// A recordReader reads the record region of an archive file — the
// frames after its header — one frame at a time through one reused
// buffer, so a reader holds one record however long the file is. It
// checks each frame's magic, lengths and CRC, and tells a torn tail
// from corruption, by the rule an in-memory scan of the region would
// apply: the region ends where the file did when it was opened.
type recordReader struct {
	r     io.Reader // the file past its header, usually through a bufio.Reader
	left  int64     // region bytes after the last whole record
	off   int64     // region bytes of whole records read
	n     int       // whole records read
	frame []byte
	keys  keyTable // each's keys; made on first use when nil
}

// fileBufSize is the bufio buffer an archive file is read, or a
// segment written, through.
const fileBufSize = 32 << 10

// next reads the frame at the cursor and returns it; the frame stays
// valid until the next call. It returns io.EOF at the end of the
// region, errShortRecord when the region ends mid-frame (a torn tail,
// the expected artifact of a crash during append), errCorruptRecord
// when the bytes are not a record (bad magic, an impossible length, a
// CRC mismatch), or a read error. After an error, off and left still
// end at the start of the frame it could not read; the reader is not
// read again.
func (rr *recordReader) next() ([]byte, error) {
	if rr.left == 0 {
		return nil, io.EOF
	}
	if rr.left < 8 {
		return nil, errShortRecord
	}
	if cap(rr.frame) < 8 {
		rr.frame = make([]byte, 0, 256)
	}
	b := rr.frame[:8]
	if err := rr.read(b); err != nil {
		return nil, err
	}
	if b[0] != recMagic {
		return nil, errCorruptRecord
	}
	keyLen := int(binary.BigEndian.Uint16(b[2:4]))
	dataLen := int(binary.BigEndian.Uint32(b[4:8]))
	if dataLen > MaxData {
		return nil, errCorruptRecord
	}
	total := 8 + keyLen + dataLen + 4
	if int64(total) > rr.left {
		return nil, errShortRecord
	}
	if cap(b) < total {
		b = append(make([]byte, 0, max(total, 2*cap(b))), b...)
		rr.frame = b
	}
	b = b[:total]
	if err := rr.read(b[8:]); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(b[:total-4]) != binary.BigEndian.Uint32(b[total-4:]) {
		return nil, errCorruptRecord
	}
	rr.left -= int64(total)
	rr.off += int64(total)
	rr.n++
	return b, nil
}

// read fills b. The region's length came from the file's size when it
// was opened, so a file that ends sooner was cut short under the
// reader: that reads as a torn tail.
func (rr *recordReader) read(b []byte) error {
	_, err := io.ReadFull(rr.r, b)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errShortRecord
	}
	return err
}

// each hands fn every record from the cursor to the end of the region,
// in order, each lending its Data from the reader's frame buffer until
// fn returns (fn may be nil to only check them). It returns nil at the
// end of the region, the defect or read error next met, or fn's error.
func (rr *recordReader) each(fn func(Record) error) error {
	for {
		frame, err := rr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if fn == nil {
			continue
		}
		if rr.keys == nil {
			rr.keys = keyTable{}
		}
		// Data is capped at the CRC, so an append to it copies.
		end := 8 + int(binary.BigEndian.Uint16(frame[2:4]))
		rec := Record{Kind: frame[1], Key: rr.keys.intern(frame[8:end]), Data: frame[end : len(frame)-4 : len(frame)-4]}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// recordDefect reports whether err is a defect in the records
// themselves — a torn tail or corruption — as opposed to an I/O error
// or a caller's.
func recordDefect(err error) bool {
	return errors.Is(err, errShortRecord) || errors.Is(err, errCorruptRecord)
}
