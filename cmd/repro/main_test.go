package main

import (
	"strings"
	"testing"
)

// TestFigureTable: the help string, the -all set and the unknown-figure
// error are all read off the one figures table, and a bad selector is
// rejected before any figure runs.
func TestFigureTable(t *testing.T) {
	help := figHelp()
	seen := map[string]bool{}
	for _, f := range figures {
		if f.label == "" || f.run == nil || len(f.keys) == 0 {
			t.Fatalf("incomplete table entry %+v", f.keys)
		}
		for _, k := range f.keys {
			if seen[k] {
				t.Errorf("selector %q appears twice", k)
			}
			seen[k] = true
			sel, err := selectFigures(k, false)
			if err != nil || len(sel) != 1 || sel[0].label != f.label {
				t.Errorf("-fig %s selected %v, %v; want %q", k, sel, err, f.label)
			}
		}
	}
	if got := strings.Split(help, ", "); len(got) != len(seen) {
		t.Errorf("help lists %d selectors, table has %d: %s", len(got), len(seen), help)
	}

	all, err := selectFigures("", true)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, f := range figures {
		if f.inAll {
			want++
		}
	}
	if len(all) != want || want != len(figures)-1 {
		t.Errorf("-all selects %d figures, want %d (everything but scale10k)", len(all), want)
	}
	for _, f := range all {
		if f.keys[0] == "scale10k" {
			t.Error("-all includes the 10k-path tier")
		}
	}

	if sel, err := selectFigures("5, 16 ,scale", false); err != nil || len(sel) != 3 || sel[1].label != "figs 15-16" {
		t.Errorf("trimmed list selected %v, %v", sel, err)
	}
	if _, err := selectFigures("5,6,bogus", false); err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), help) {
		t.Errorf("unknown figure error = %v; want it to name the selector and list %s", err, help)
	}
	if _, err := selectFigures("5", true); err == nil {
		t.Error("-all with -fig was accepted")
	}
}
