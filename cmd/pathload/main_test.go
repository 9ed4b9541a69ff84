package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// A rejectCase is a command line pathload refuses and the substring its
// error must carry.
type rejectCase struct {
	name string
	args []string
	want string
}

// rejected are the mode-matrix combinations pathload refuses;
// TestCommandLineGolden pins their full text.
var rejected = []rejectCase{
	{"scenario+mesh", []string{"-monitor", "-scenario", "lossy", "-mesh", "star"}, "excludes -mesh"},
	{"scenario+senders", []string{"-monitor", "-scenario", "lossy", "-senders", "a:1"}, "excludes -senders"},
	{"scenario+stagger", []string{"-monitor", "-scenario", "lossy", "-stagger"}, "-stagger"},
	{"scenario+adaptive", []string{"-monitor", "-scenario", "lossy", "-schedule", "adaptive"}, "-schedule"},
	{"scenario+budget", []string{"-monitor", "-scenario", "lossy", "-budget", "1"}, "-budget"},
	{"scenario+archive", []string{"-monitor", "-scenario", "lossy", "-archive", "d"}, "excludes -archive"},
	{"senders+mesh", []string{"-monitor", "-senders", "a:1", "-mesh", "star"}, "excludes -mesh"},
	{"senders+stagger", []string{"-monitor", "-senders", "a:1", "-stagger"}, "needs -mesh"},
	{"stagger alone", []string{"-monitor", "-stagger"}, "needs -mesh"},
	{"budgeted, no budget", []string{"-monitor", "-schedule", "budgeted"}, "needs -budget"},
}

// validate runs args through flag parsing and the mode table without
// running anything.
func validate(args ...string) error {
	fs := flag.NewFlagSet("pathload", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	_, _, err := parseArgs(fs, args)
	return err
}

// TestValidateFlagMatrix pins the mode matrix: every rejected
// combination errors with the remedy in the message, every documented
// composition is accepted.
func TestValidateFlagMatrix(t *testing.T) {
	reject := slices.Concat(rejected, []rejectCase{
		{"mesh+cap", []string{"-monitor", "-mesh", "star", "-cap", "5"}, "-mesh excludes -cap"},
		{"agent+mesh", []string{"-agent", "c:1", "-mesh", "star", "-stagger", "-rounds", "0"}, "-mesh needs -monitor"},
		{"agent+monitor", []string{"-agent", "c:1", "-monitor"}, "-agent excludes -monitor"},
		{"agent-name alone", []string{"-agent-name", "a1"}, "-agent-name needs -agent"},
		{"paths alone", []string{"-paths", "4"}, "single-path mode excludes -paths"},
		{"verbose fleet", []string{"-monitor", "-v"}, "-monitor excludes -v"},
		{"positional", []string{"-monitor", "sim:0.3", "-rounds", "0"}, "unexpected argument \"sim:0.3\""},
		{"rounds 0", []string{"-monitor", "-rounds", "0"}, "-rounds ≥ 1"},
		{"unknown schedule", []string{"-monitor", "-schedule", "often"}, "unknown -schedule"},
		{"unknown mesh", []string{"-monitor", "-mesh", "pretzel"}, "unknown -mesh"},
	})
	for _, tc := range reject {
		if err := validate(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	accept := map[string][]string{
		"bare fleet":        {},
		"scenario":          {"-scenario", "lossy", "-schedule", "fixed"},
		"mesh":              {"-mesh", "star"},
		"mesh+stagger":      {"-mesh", "star", "-stagger"},
		"mesh+budgeted":     {"-mesh", "star", "-schedule", "budgeted", "-budget", "2"},
		"senders+adaptive":  {"-senders", "a:1,b:2", "-schedule", "adaptive"},
		"fleet budget wrap": {"-budget", "2"},
		"archive":           {"-archive", "data/arch:seal=1m"},
		"mesh+archive":      {"-mesh", "star", "-archive", "data/arch"},
		"senders+archive":   {"-senders", "a:1", "-archive", "data/arch"},
		"archive+budget":    {"-archive", "data/arch", "-budget", "2"},
	}
	for name, args := range accept {
		if err := validate(append([]string{"-monitor"}, args...)...); err != nil {
			t.Errorf("%s: unexpected error %v", name, err)
		}
	}
}

// TestModeTable checks the table against the flags: every flag is read
// by some mode, every name a row lists is a flag, and every row reads
// its own selector flags.
func TestModeTable(t *testing.T) {
	fs := flag.NewFlagSet("pathload", flag.ContinueOnError)
	parseArgs(fs, nil)
	fs.VisitAll(func(f *flag.Flag) {
		if !slices.ContainsFunc(modes, func(m mode) bool { return m.reads(f.Name) }) {
			t.Errorf("no mode reads -%s", f.Name)
		}
	})
	for _, m := range modes {
		for _, name := range strings.Fields(m.flags) {
			if fs.Lookup(name) == nil {
				t.Errorf("%s reads -%s, which is not a flag", m.usage, name)
			}
		}
		for _, name := range strings.Fields(m.selector) {
			if !m.reads(name) {
				t.Errorf("%s does not read its selector -%s", m.usage, name)
			}
		}
	}
}

// TestRangeChecks: values the simulator cannot build exit 2 with a
// message in every mode that reads the flag, instead of panicking.
func TestRangeChecks(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-util", "1.5"}, "-util must lie in [0,1)"},
		{[]string{"-monitor", "-util", "1.5"}, "-util must lie in [0,1)"},
		{[]string{"-hops", "-1"}, "-hops must not be negative"},
		{[]string{"-cap", "-5"}, "-cap must not be negative"},
		{[]string{"-monitor", "-cap", "-5"}, "-cap must not be negative"},
		{[]string{"-sources", "-1"}, "-sources must not be negative"},
		{[]string{"-monitor", "-sources", "-1"}, "-sources must not be negative"},
		{[]string{"-beta", "0.5"}, "-beta must be ≥ 1"},
		// NaN fails every comparison, so each check must be one that
		// NaN fails; +Inf overflows the link's integer rate.
		{[]string{"-util", "NaN"}, "-util must lie in [0,1)"},
		{[]string{"-monitor", "-util", "NaN"}, "-util must lie in [0,1)"},
		{[]string{"-cap", "NaN"}, "-cap must not be negative"},
		{[]string{"-monitor", "-cap", "NaN"}, "-cap must not be negative"},
		{[]string{"-cap", "Inf"}, "-cap must not be negative or infinite"},
		{[]string{"-beta", "NaN"}, "-beta must be ≥ 1"},
		{[]string{"-beta", "Inf"}, "-beta must be ≥ 1 and finite"},
		{[]string{"-monitor", "-budget", "NaN"}, "-budget must be a finite Mb/s ≥ 0"},
		{[]string{"-monitor", "-schedule", "budgeted", "-budget", "NaN"}, "-budget must be a finite Mb/s ≥ 0"},
		{[]string{"-monitor", "-budget", "-1"}, "-budget must be a finite Mb/s ≥ 0"},
	} {
		if err := validate(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want substring %q", tc.args, err, tc.want)
		}
	}
}

// TestReadmeInvocations runs every `go run ./cmd/pathload` command line
// in README.md (continuation lines joined) through the flag parser and
// the mode table, so a documented invocation cannot silently drop a
// flag.
func TestReadmeInvocations(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(readme), "\\\n", " ")
	n := 0
	for _, line := range strings.Split(text, "\n") {
		_, cmd, ok := strings.Cut(line, "go run ./cmd/pathload ")
		if !ok {
			continue
		}
		n++
		args := strings.Fields(strings.TrimSuffix(strings.TrimSpace(cmd), "&"))
		if err := validate(args...); err != nil {
			t.Errorf("README: pathload %s: %v", strings.Join(args, " "), err)
		}
	}
	if n == 0 {
		t.Fatal("README.md has no go run ./cmd/pathload invocation")
	}
}

// TestAgentProviderSimPaths: a malformed sim: lease is an error, not a
// network address to dial.
func TestAgentProviderSimPaths(t *testing.T) {
	for _, path := range []string{"sim:0.4@", "sim:1.2", "sim:x", "sim:NaN", "sim:NaN@3", "sim:-0.1"} {
		if _, err := agentProvider(path); err == nil {
			t.Errorf("agentProvider(%q) succeeded, want an error", path)
		}
	}
	for _, path := range []string{"sim:0.4@7", "host:8365"} {
		if _, err := agentProvider(path); err != nil {
			t.Errorf("agentProvider(%q): %v", path, err)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/cli.golden")

// TestCommandLineGolden builds the command and pins, byte for byte, what
// it prints and its exit status for -h and for every rejected
// combination (testdata/cli.golden; -update rewrites it). The child runs
// with GOMAXPROCS=4 so the -workers default does not depend on the host.
func TestCommandLineGolden(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(t.TempDir(), "pathload")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var got bytes.Buffer
	runs := [][]string{{"-h"}}
	for _, tc := range rejected {
		runs = append(runs, tc.args)
	}
	for _, args := range runs {
		cmd := &exec.Cmd{
			Path: bin,
			Args: append([]string{"pathload"}, args...),
			Env:  append(os.Environ(), "GOMAXPROCS=4"),
		}
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%v: %v", args, err)
		}
		fmt.Fprintf(&got, "$ pathload %s\n%s(exit %d)\n\n", strings.Join(args, " "), out, cmd.ProcessState.ExitCode())
	}
	golden := filepath.Join("testdata", "cli.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("command-line output differs from %s (-update rewrites it):\n%s", golden, got.Bytes())
	}
}
