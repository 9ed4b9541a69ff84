package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// parse runs args through repro's flag parser and selector.
func parse(args ...string) (experiments.Options, []experiments.Figure, error) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

// firstKeys names the selected rows by their first keys.
func firstKeys(sel []experiments.Figure) []string {
	var out []string
	for _, f := range sel {
		out = append(out, f.Keys[0])
	}
	return out
}

// TestFigureTable: the help string, the -all set and the unknown-figure
// error are all read off experiments.Figures, a bad selector is
// rejected before any figure runs, and a row is selected once however
// many of its keys are named.
func TestFigureTable(t *testing.T) {
	help := figHelp()
	n := 0
	for _, f := range experiments.Figures {
		for _, k := range f.Keys {
			n++
			sel, err := selectFigures([]string{k}, false)
			if err != nil || len(sel) != 1 || sel[0].Label != f.Label {
				t.Errorf("-fig %s selected %v, %v; want %q", k, firstKeys(sel), err, f.Label)
			}
		}
	}
	if got := strings.Split(help, ", "); len(got) != n {
		t.Errorf("help lists %d selectors, table has %d: %s", len(got), n, help)
	}

	all, err := selectFigures(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments.Figures)-1 {
		t.Errorf("-all selects %d figures, want %d (everything but scale10k)", len(all), len(experiments.Figures)-1)
	}
	for _, f := range all {
		if f.Keys[0] == "scale10k" {
			t.Error("-all includes the 10k-path tier")
		}
	}

	for _, tc := range []struct {
		fig  string
		want string
	}{
		{"5, 16 ,scale", "5|15|scale"},
		{"15,16", "15"},
		{"5,5", "5"},
		{"16,5,15", "15|5"},
	} {
		_, sel, err := parse("-fig", tc.fig)
		if got := strings.Join(firstKeys(sel), "|"); err != nil || got != tc.want {
			t.Errorf("-fig %q selected %q, %v; want %q", tc.fig, got, err, tc.want)
		}
	}
	if _, _, err := parse("-fig", "5,6,bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), help) {
		t.Errorf("unknown figure error = %v; want it to name the selector and list %s", err, help)
	}
	for _, args := range [][]string{{"-all", "-fig", "5"}, {}, {"-fig", ","}} {
		if _, _, err := parse(args...); err == nil {
			t.Errorf("repro %v was accepted", args)
		}
	}
}

// TestParseArgs: every flag is read whatever its place, a positional
// argument is an error rather than the end of the flags, and a scale
// outside (0, 1] or a zero seed is rejected by name instead of run as
// something else.
func TestParseArgs(t *testing.T) {
	opt, sel, err := parse("-fig", "1", "-scale", "0.05", "-seed", "3")
	if err != nil || opt != (experiments.Options{Scale: 0.05, Seed: 3}) || len(sel) != 1 {
		t.Errorf("-fig 1 -scale 0.05 -seed 3 parsed to %+v %v, %v", opt, firstKeys(sel), err)
	}
	if _, _, err := parse("-fig", "1", "x", "-scale", "0.05"); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("positional argument: err = %v, want it named", err)
	}
	for _, s := range []string{"NaN", "Inf", "-Inf", "-0.5", "0", "1.5", "1e9"} {
		if _, _, err := parse("-fig", "1", "-scale", s); err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("-scale %s: err = %v, want a rejection naming -scale", s, err)
		}
	}
	if _, _, err := parse("-fig", "8", "-seed", "0"); err == nil || !strings.Contains(err.Error(), "-seed") {
		t.Errorf("-seed 0: err = %v, want a rejection naming -seed", err)
	}
	if opt, _, err := parse("-all"); err != nil || opt.Scale != 1 {
		t.Errorf("-all parsed to %+v, %v; want paper scale", opt, err)
	}
}

// TestReadmeInvocations runs every `go run ./cmd/repro` command line in
// README.md through the flag parser and the selector, so a documented
// invocation cannot name an unknown figure or a rejected scale.
func TestReadmeInvocations(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(readme), "\n") {
		_, cmd, ok := strings.Cut(line, "go run ./cmd/repro ")
		if !ok {
			continue
		}
		n++
		cmd, _, _ = strings.Cut(cmd, "#") // a shell comment
		cmd, _, _ = strings.Cut(cmd, "`") // the end of inline code
		args := strings.Fields(cmd)
		if _, _, err := parse(args...); err != nil {
			t.Errorf("README: repro %s: %v", strings.Join(args, " "), err)
		}
	}
	if n == 0 {
		t.Fatal("README.md has no go run ./cmd/repro invocation")
	}
}
