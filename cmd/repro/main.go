// Command repro regenerates the figures of Jain & Dovrolis, "End-to-End
// Available Bandwidth" (SIGCOMM 2002), on the packet-level simulator.
//
// Usage:
//
//	repro -fig 5            # one figure
//	repro -all              # every figure
//	repro -all -scale 0.2   # scaled-down run counts and windows
//
// Output is plain text: one table or series per figure, in the shape of
// the paper's plots. The figures are the rows of experiments.Figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
)

// figHelp lists every selector of the table, for the -fig usage text.
func figHelp() string {
	var keys []string
	for _, f := range experiments.Figures {
		keys = append(keys, f.Keys...)
	}
	return strings.Join(keys, ", ")
}

// selectFigures resolves the -fig keys or -all against the table, each
// row once, in the order of its first key.
func selectFigures(keys []string, all bool) ([]experiments.Figure, error) {
	var sel []experiments.Figure
	if all {
		for _, f := range experiments.Figures {
			if f.InAll {
				sel = append(sel, f)
			}
		}
		return sel, nil
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("no figure selected: pass -all or -fig with some of %s", figHelp())
	}
	seen := map[string]bool{}
	for _, key := range keys {
		f, ok := experiments.FigureByKey(key)
		if !ok {
			return nil, fmt.Errorf("unknown figure %q (have %s)", key, figHelp())
		}
		if !seen[f.Keys[0]] {
			seen[f.Keys[0]] = true
			sel = append(sel, f)
		}
	}
	return sel, nil
}

// parseArgs defines the flags on fs, parses args and resolves them
// before anything runs, so a typo or a bad scale fails at once instead
// of after the figures in front of it.
func parseArgs(fs *flag.FlagSet, args []string) (experiments.Options, []experiments.Figure, error) {
	fig := fs.String("fig", "", "figure(s) to reproduce, comma-separated: "+figHelp())
	all := fs.Bool("all", false, "reproduce every figure (except scale10k)")
	scale := fs.Float64("scale", 1.0, "scale factor for run counts and measurement windows, in (0, 1] (1 = paper scale)")
	seed := fs.Int64("seed", 1, "master random seed, non-zero")
	if err := cli.Parse(fs, args); err != nil {
		return experiments.Options{}, nil, err
	}
	switch {
	case !(*scale > 0 && *scale <= 1): // NaN fails too
		return experiments.Options{}, nil, fmt.Errorf("-scale %v outside (0, 1]", *scale)
	case *seed == 0: // Options reads 0 as its default, seed 1
		return experiments.Options{}, nil, fmt.Errorf("-seed 0 would rerun -seed 1; pass a non-zero seed")
	case *all && *fig != "":
		return experiments.Options{}, nil, fmt.Errorf("-all runs every figure; drop -fig %q or drop -all", *fig)
	}
	sel, err := selectFigures(cli.Split(*fig), *all)
	return experiments.Options{Scale: *scale, Seed: *seed}, sel, err
}

func main() {
	opt, sel, err := parseArgs(flag.CommandLine, os.Args[1:]) // a bad flag exits 2
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(2)
	}
	for _, f := range sel {
		start := time.Now()
		fmt.Print(f.Run(opt))
		fmt.Printf("(%s in %.1fs)\n\n", f.Label, time.Since(start).Seconds())
	}
}
