package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/tsstore"
)

var update = flag.Bool("update", false, "rewrite testdata/defects.golden")

// A defect damages a copy of the mini fixture the way one crash or one
// act of tampering would.
type defect struct {
	name   string
	damage func(t *testing.T, dir string)
}

// Offsets into one of the fixture's version 1 segment files: the header
// is magic u32 | version u16 | index u64 | prevHash 32B | sealedUnix
// i64 | recordCount u32 | ckptLen u32, then the checkpoint, then the
// records.
const (
	segHdrLen    = 4 + 2 + 8 + 32 + 8 + 4 + 4
	segCkptLenAt = segHdrLen - 4
)

var defects = []defect{
	{"clean", func(*testing.T, string) {}},
	{"flipped byte in a sealed record", func(t *testing.T, dir string) {
		editFile(t, filepath.Join(dir, "seg-00000001"), func(b []byte) []byte {
			ckptLen := int(binary.BigEndian.Uint32(b[segCkptLenAt:]))
			b[segHdrLen+ckptLen+12] ^= 0x01 // inside the first record's data
			return b
		})
	}},
	{"flipped byte in an older segment's checkpoint", func(t *testing.T, dir string) {
		editFile(t, filepath.Join(dir, "seg-00000001"), func(b []byte) []byte {
			ckptLen := int(binary.BigEndian.Uint32(b[segCkptLenAt:]))
			b[segHdrLen+ckptLen/2] ^= 0x01
			return b
		})
	}},
	{"torn wal tail", func(t *testing.T, dir string) {
		editFile(t, filepath.Join(dir, "wal.log"), func(b []byte) []byte { return b[:len(b)-5] })
	}},
	{"stale wal", func(t *testing.T, dir string) {
		editFile(t, filepath.Join(dir, "wal.log"), func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[6:14], 1) // afterSeg = newest − 1
			return b
		})
	}},
	{"foreign-version wal", func(t *testing.T, dir string) {
		editFile(t, filepath.Join(dir, "wal.log"), func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[4:6], archive.Version+1)
			return b
		})
	}},
}

// TestDefectsGolden pins what every reader of an archive directory
// makes of the committed fixture and of damaged copies of it: Verify's
// report, Open's and OpenStore's reports (or errors) and the file sizes
// each leaves behind, and `pathload-archive cat`'s output. Run with
// -update to regolden after an intentional change.
func TestDefectsGolden(t *testing.T) {
	var out strings.Builder
	for _, d := range defects {
		fresh := func() string {
			dir := t.TempDir()
			copyDir(t, fixtureDir, dir)
			d.damage(t, dir)
			return dir
		}
		fmt.Fprintf(&out, "=== %s\n", d.name)

		rep, err := archive.Verify(fresh())
		if err != nil {
			t.Fatalf("%s: Verify: %v", d.name, err)
		}
		fmt.Fprintf(&out, "--- verify\n%s", rep.String())

		dir := fresh()
		a, orep, err := archive.Open(dir, archive.Options{})
		if err == nil {
			err = a.Close()
		}
		fmt.Fprintf(&out, "--- open\n%s\n%s", result(orep.String(), err), sizes(t, dir))

		dir = fresh()
		st, _, srep, err := archive.OpenStore(dir, archive.Options{}, tsstore.Config{})
		if err == nil {
			err = st.Close()
		}
		fmt.Fprintf(&out, "--- open store\n%s\n%s", result(srep.String(), err), sizes(t, dir))

		text, err := catOutput(t, fresh())
		fmt.Fprintf(&out, "--- cat\n%s%s\n", text, result("ok", err))
	}

	const golden = "testdata/defects.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run once with -update to create it): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("archive readers disagree with %s:\n--- got\n%s\n--- want\n%s", golden, got, want)
	}
}

func result(ok string, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return ok
}

// sizes lists every file in dir with its size, in name order.
func sizes(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("  %s %d\n", e.Name(), fi.Size()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// catOutput runs `pathload-archive cat dir` in-process and returns what
// it printed.
func catOutput(t *testing.T, dir string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	catErr := runCat([]string{dir})
	os.Stdout = stdout
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), catErr
}

func editFile(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(b), 0o644); err != nil {
		t.Fatal(err)
	}
}
