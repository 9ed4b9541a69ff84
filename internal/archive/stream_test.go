package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tsstore"
)

// TestSealFailureAfterRenameClosesArchive: once a seal has renamed its
// segment in, a failed WAL swap leaves a WAL the next Open discards as
// stale. The archive must stop taking appends then, as it does after a
// crash at that point, so a later append fails loudly instead of
// vanishing at the next Open — and a store behind it counts that
// failure.
func TestSealFailureAfterRenameClosesArchive(t *testing.T) {
	breakWAL := func(t *testing.T, a *Archive) {
		a.failpoint = func(stage string) error {
			if stage != "sealed-segment" {
				return nil
			}
			// Something the swap's rename cannot replace.
			wal := filepath.Join(a.dir, walName)
			if err := os.Remove(wal); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(wal, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			return nil
		}
	}

	t.Run("archive", func(t *testing.T) {
		a, _ := openT(t, t.TempDir(), Options{})
		defer a.Close()
		appendN(t, a, 0, 3)
		breakWAL(t, a)
		if err := a.Seal(); err == nil {
			t.Fatal("Seal succeeded with an unreplaceable WAL")
		}
		if err := a.Append(rec(3)); err == nil {
			t.Fatal("Append after a failed WAL swap returned nil")
		}
	})

	t.Run("store", func(t *testing.T) {
		st, be, _ := openStoreT(t, t.TempDir(), Options{}, tsstore.Config{})
		defer st.Close()
		feed(st, testPaths, 0, 2)
		breakWAL(t, be.Archive())
		if err := be.Archive().Seal(); err == nil {
			t.Fatal("Seal succeeded with an unreplaceable WAL")
		}
		st.Observe(sample("path-00", 2))
		if n, last := st.BackendErrs(); n != 1 || last == nil {
			t.Fatalf("BackendErrs = %d, %v after an append to a failed archive; want 1", n, last)
		}
	})
}

// TestCheckpointHoldsOnlyItsBlob: the newest checkpoint the archive
// keeps for its lifetime must be its own allocation, not a window into
// a segment file's image or a hook's spare capacity.
func TestCheckpointHoldsOnlyItsBlob(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	a.SetHooks(nil, func() []byte { return append(make([]byte, 0, 64), 1, 2) })
	appendN(t, a, 0, 1000)
	if err := a.Seal(); err != nil {
		t.Fatal(err)
	}
	if len(a.ckpt) != 2 || cap(a.ckpt) != len(a.ckpt) {
		t.Errorf("after Seal: checkpoint len %d cap %d, want 2 and 2", len(a.ckpt), cap(a.ckpt))
	}
	a.Close()

	a, _ = openT(t, dir, Options{})
	defer a.Close()
	if len(a.ckpt) != 2 || cap(a.ckpt) != len(a.ckpt) {
		t.Errorf("after Open: checkpoint len %d cap %d, want 2 and 2", len(a.ckpt), cap(a.ckpt))
	}

	// The store's own encoder sizes its blob exactly (the seal above
	// would hide a spare capacity by copying).
	st, be, _ := openStoreT(t, t.TempDir(), Options{}, tsstore.Config{})
	defer st.Close()
	feed(st, []string{"path-00", "path-01", "path-02"}, 0, 40)
	be.Archive().mu.Lock()
	ck := be.checkpoint()
	be.Archive().mu.Unlock()
	if len(ck) == 0 || cap(ck) != len(ck) {
		t.Errorf("store checkpoint len %d cap %d, want equal and non-zero", len(ck), cap(ck))
	}
}

// TestSealReadbackMismatch: a seal checks the WAL it streams into the
// segment — every CRC, and exactly as many records as the archive
// appended. On a mismatch either way it must fail and leave neither a
// segment nor a temp file behind.
func TestSealReadbackMismatch(t *testing.T) {
	for _, skew := range []int{-1, +1} {
		t.Run(fmt.Sprintf("skew %+d", skew), func(t *testing.T) {
			dir := t.TempDir()
			a, _ := openT(t, dir, Options{})
			defer a.Close()
			appendN(t, a, 0, 5)
			a.walRecs += skew
			err := a.Seal()
			if err == nil || !strings.Contains(err.Error(), "wal readback") {
				t.Fatalf("Seal with %d of 5 records counted: %v, want a wal readback error", 5+skew, err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), segPrefix) || strings.HasPrefix(e.Name(), ".tmp-") {
					t.Errorf("failed seal left %s behind", e.Name())
				}
			}
		})
	}
}

// TestWalkStopsAtDamage: a walk reads each segment once, so a damaged
// record fails it after fn has seen the records ahead of the damage,
// never after fn has seen the damaged one or any past it.
func TestWalkStopsAtDamage(t *testing.T) {
	dir := t.TempDir()
	a, _ := openT(t, dir, Options{})
	appendN(t, a, 0, 6)
	if err := a.Seal(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	seg := segPath(dir, 1)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Records start after the header (there is no checkpoint); flip a
	// byte of the fourth one.
	frame, _ := appendRecord(nil, rec(0))
	b[segHdrLen+3*len(frame)+10] ^= 0x01
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var seen int
	err = Walk(dir, func(r Record, sealed bool) error {
		if want := rec(seen); r.Key != want.Key || string(r.Data) != string(want.Data) {
			t.Errorf("record %d: got %+v, want %+v", seen, r, want)
		}
		seen++
		return nil
	})
	if !errors.Is(err, errCorruptRecord) || seen != 3 {
		t.Fatalf("Walk saw %d records and returned %v; want 3 and a corrupt record", seen, err)
	}
}

// TestRecoveryAllocationBudget: OpenStore holds one record at a time,
// so what it allocates per replayed record is the record's own key and
// data plus its decode and ring insert, at any segment size or count.
// Reading whole segment images instead allocated a segment's bytes for
// each time a segment was read: 416–568 B per record on these shapes.
func TestRecoveryAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	// Bytes OpenStore may allocate per replayed record. A record's Key
	// and Data copies are 16 + 64 B; the rest is per-path state (rings,
	// digests, the checkpoint's series) and per-file read buffers,
	// spread over the records: 86–115 B in all when this was written.
	const budget = 128
	cfg := tsstore.Config{Capacity: 32}
	paths := make([]string, 20)
	for i := range paths {
		paths[i] = fmt.Sprintf("path-%05d", i)
	}
	perRecord := map[string]uint64{}
	for _, shape := range []struct {
		segs, rounds int // rounds of every path per segment
	}{
		{1, 500},  // one segment of 10 k records
		{8, 500},  // eight of 10 k
		{1, 4000}, // one of 80 k
	} {
		name := fmt.Sprintf("%d × %dk", shape.segs, shape.rounds*len(paths)/1000)
		dir := t.TempDir()
		st, be, _ := openStoreT(t, dir, Options{}, cfg)
		round := 0
		for s := 0; s < shape.segs; s++ {
			for r := 0; r < shape.rounds; r++ {
				for _, p := range paths {
					st.Observe(sample(p, round))
				}
				round++
			}
			if err := be.Archive().Seal(); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range paths[:10] { // a WAL tail
			st.Observe(sample(p, round))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, _, rep, err := OpenStore(dir, Options{}, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		records := uint64(rep.SealedRecords + rep.TailRecords)
		if want := uint64(round*len(paths) + 10); records != want {
			t.Fatalf("%s: replayed %d records, want %d", name, records, want)
		}
		perRecord[name] = (after.TotalAlloc - before.TotalAlloc) / records
		t.Logf("%s: %d B per record", name, perRecord[name])
		if perRecord[name] > budget {
			t.Errorf("%s: OpenStore allocates %d B per replayed record, want at most %d", name, perRecord[name], budget)
		}
	}
	if one, big := perRecord["1 × 10k"], perRecord["1 × 80k"]; big > one {
		t.Errorf("per-record allocation grows with segment size: %d B at 10 k records, %d B at 80 k", one, big)
	}
}
