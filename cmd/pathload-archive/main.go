// Command pathload-archive inspects and maintains the durable
// measurement archives written by `pathload -archive` and
// `pathload-coord -archive` (internal/archive: an append-only WAL
// sealed into hash-chained segment files beside one live checkpoint
// file).
//
//	pathload-archive verify  <dir>            # integrity walk; exit 1 on tampering
//	pathload-archive compact <dir> [flags]    # drop old segments under a byte/age cap
//	pathload-archive cat     <dir>            # decode every retained record
//
// verify recomputes every record CRC, every segment's whole-file
// SHA-256, the prev-hash chain between segments, the HEAD anchor, and
// the live checkpoint's SHA-256 against the newest segment's header:
// a single flipped byte anywhere in sealed history or the live
// checkpoint fails the walk. A torn WAL tail is reported but is
// ordinary crash fallout, not a failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/archive"
	"repro/internal/coord"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, rest := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "verify":
		err = runVerify(rest)
	case "compact":
		err = runCompact(rest)
	case "cat":
		err = runCat(rest)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "pathload-archive: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pathload-archive: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: pathload-archive <command> <dir> [flags]

commands:
  verify  <dir>                      integrity walk: record CRCs, segment
                                     hashes, prev-hash chain, HEAD anchor,
                                     live checkpoint; exit 1 if anything
                                     fails
  compact <dir> -max-bytes n -max-age d
                                     drop oldest sealed segments while the
                                     archive exceeds either cap (the newest
                                     segment always survives)
  cat     <dir>                      decode every retained record, oldest
                                     first, one line each
`)
}

// runVerify walks the archive read-only and prints the report; any
// integrity problem is a non-zero exit.
func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("verify: want exactly one archive dir, got %d args", fs.NArg())
	}
	rep, err := archive.Verify(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if !rep.OK() {
		os.Exit(1)
	}
	return nil
}

// runCompact applies the retention caps and reports what it removed.
// The dir may come before or after the flags (stdlib flag parsing
// stops at the first positional argument, so peel a leading dir off).
func runCompact(args []string) error {
	var dir string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		dir, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	maxBytes := fs.Int64("max-bytes", 0, "total sealed-segment byte cap (0 = unlimited)")
	maxAge := fs.Duration("max-age", 0, "oldest segment age cap (0 = unlimited)")
	fs.Parse(args)
	switch {
	case dir == "" && fs.NArg() == 1:
		dir = fs.Arg(0)
	case dir != "" && fs.NArg() == 0:
	default:
		return fmt.Errorf("compact: want exactly one archive dir")
	}
	if *maxBytes <= 0 && *maxAge <= 0 {
		return fmt.Errorf("compact: nothing to do — set -max-bytes and/or -max-age")
	}
	a, rep, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return err
	}
	defer a.Close()
	fmt.Printf("opened: %s\n", rep.String())
	removed, err := a.Compact(*maxBytes, *maxAge)
	for _, idx := range removed {
		fmt.Printf("removed seg %d\n", idx)
	}
	if err != nil {
		return err
	}
	fmt.Printf("compacted: %d segments removed, %d retained\n", len(removed), len(a.Segments()))
	return nil
}

// runCat streams every retained record through the kind decoders. The
// tsstore kinds decode fully; coordinator kinds are labeled (their
// payloads reuse the SLCP wire encoding and stay opaque here beyond
// the key).
func runCat(args []string) error {
	fs := flag.NewFlagSet("cat", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("cat: want exactly one archive dir, got %d args", fs.NArg())
	}
	return archive.Walk(fs.Arg(0), func(r archive.Record, sealed bool) error {
		src := "wal"
		if sealed {
			src = "seg"
		}
		switch r.Kind {
		case archive.KindPointCompact:
			path, p, err := archive.DecodePointRecord(r)
			if err != nil {
				return err
			}
			fmt.Printf("%s point %-12s round=%d at=%v span=%v lo=%.0f hi=%.0f bits=%.0f err=%q\n",
				src, path, p.Round, p.At, p.Span, p.Lo, p.Hi, p.Bits, p.Err)
		case archive.KindLink:
			link, p, err := archive.DecodeLinkRecord(r)
			if err != nil {
				return err
			}
			fmt.Printf("%s link  %-12s round=%d at=%v span=%v util=%.3f cap=%.0f\n",
				src, link, p.Round, p.At, p.Span, p.Util, p.Capacity)
		case coord.KindContribution:
			fmt.Printf("%s coord contribution %-20s %d payload bytes\n", src, r.Key, len(r.Data))
		case coord.KindLeases:
			fmt.Printf("%s coord lease snapshot %d payload bytes\n", src, len(r.Data))
		default:
			fmt.Printf("%s kind=0x%02x key=%q %d payload bytes\n", src, r.Kind, r.Key, len(r.Data))
		}
		return nil
	})
}
