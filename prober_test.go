package pathload_test

import (
	"encoding/binary"
	"slices"
	"sort"
	"testing"
	"time"

	pathload "repro"
)

// FuzzStreamCollector holds StreamCollector to the receive rule it
// replaced: dedup through a map, keep seq < k, sort. The input is k
// (≤ 256) and a clock offset, then 4-byte puts: a 16-bit seq whose top
// bit folds it just below 2⁶⁴ (where a straggler's wrapped ID lands)
// and a signed 16-bit OWD in microseconds. Each input runs twice on one
// collector, so the second pass also checks that Open resets it.
func FuzzStreamCollector(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 7, 0, 1, 0, 9, 0, 0, 0, 0xff, 0xff, 3, 0, 1, 0, 2, 0, 5, 0})
	f.Add([]byte{0, 1, 0x10, 0x80, 0xff, 0xff, 0, 0, 0, 0x80, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k := int(binary.LittleEndian.Uint16(data)) % 257
		offset := time.Duration(int16(binary.LittleEndian.Uint16(data[2:]))) * time.Microsecond
		type put struct {
			seq uint64
			owd time.Duration
		}
		var puts []put
		for b := data[4:]; len(b) >= 4; b = b[4:] {
			seq := uint64(binary.LittleEndian.Uint16(b))
			if seq >= 1<<15 {
				seq = ^uint64(0) - (seq - 1<<15)
			}
			puts = append(puts, put{seq, time.Duration(int16(binary.LittleEndian.Uint16(b[2:]))) * time.Microsecond})
		}

		// The reference rule, and the put at which it reaches k.
		seen := make(map[uint64]bool, k)
		var want []pathload.OWDSample
		fullAt := -1
		for i, p := range puts {
			if p.seq >= uint64(k) || seen[p.seq] {
				continue
			}
			seen[p.seq] = true
			want = append(want, pathload.OWDSample{Seq: int(p.seq), OWD: p.owd + offset})
			if len(want) == k {
				fullAt = i
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Seq < want[j].Seq })

		var c pathload.StreamCollector
		for pass := range 2 {
			c.Open(k)
			for i, p := range puts {
				if full := c.Put(p.seq, p.owd); full != (i == fullAt) {
					t.Fatalf("pass %d: put %d (seq %d) reported full %v; the reference fills at put %d", pass, i, p.seq, full, fullAt)
				}
			}
			got := c.Drain(offset)
			if !slices.Equal(got, want) {
				t.Fatalf("pass %d: drained %v, want %v", pass, got, want)
			}
			for i, s := range got {
				if s.Seq >= k || (i > 0 && s.Seq <= got[i-1].Seq) {
					t.Fatalf("pass %d: sample %d has seq %d after %v (k = %d)", pass, i, s.Seq, got[:i], k)
				}
			}
			if c.Put(0, 0) || len(c.Drain(0)) != 0 {
				t.Fatalf("pass %d: a Put after Drain was kept", pass)
			}
		}
	})
}
