// Package cli holds what the pathload commands share on their command
// lines: strict parsing, the measurement flags, the -v fleet log, the
// -export listener and the Ctrl-C wait.
package cli

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"

	pathload "repro"
)

// Parse parses args into fs and rejects positional arguments: the flag
// package stops at the first one, so every flag after it would be
// silently dropped. Like the flag package's own errors, the rejection
// exits 2 when fs was made with flag.ExitOnError.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return nil
	}
	err := fmt.Errorf("unexpected argument %q: the command takes no positional arguments, and no flag after one is read", fs.Arg(0))
	if fs.ErrorHandling() == flag.ExitOnError {
		fmt.Fprintln(fs.Output(), err)
		os.Exit(2)
	}
	return err
}

// Split parses a comma-separated list, trimming spaces and dropping
// empty elements; "" is nil.
func Split(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// MeasureFlags registers the SLoPS parameters -k, -n, -omega and -chi
// on fs. The returned function, called after parsing, reads them into
// a pathload.Config, ω and χ converted from Mb/s to bits/s.
func MeasureFlags(fs *flag.FlagSet) func() pathload.Config {
	k := fs.Int("k", pathload.DefaultPacketsPerStream, "packets per stream (K)")
	n := fs.Int("n", pathload.DefaultStreamsPerFleet, "streams per fleet (N, at most: a decided fleet stops early)")
	omega := fs.Float64("omega", pathload.DefaultResolution/1e6, "estimation resolution ω, Mb/s")
	chi := fs.Float64("chi", pathload.DefaultGreyResolution/1e6, "grey resolution χ, Mb/s")
	return func() pathload.Config {
		return pathload.Config{
			PacketsPerStream: *k,
			StreamsPerFleet:  *n,
			Resolution:       *omega * 1e6,
			GreyResolution:   *chi * 1e6,
		}
	}
}

// LogFleets writes the -v log of res, one line per fleet, with the
// stream count against the most cfg lets a fleet send.
func LogFleets(w io.Writer, res pathload.Result, cfg pathload.Config) {
	maxStreams := cfg.StreamsPerFleet
	if maxStreams == 0 { // Config reads 0 as the default
		maxStreams = pathload.DefaultStreamsPerFleet
	}
	for i, f := range res.Fleets {
		kinds := map[pathload.StreamKind]int{}
		for _, s := range f.Streams {
			kinds[s.Kind]++
		}
		inc, non := kinds[pathload.StreamIncreasing], kinds[pathload.StreamNonIncreasing]
		fmt.Fprintf(w, "fleet %2d: R=%7.2f Mb/s L=%4dB T=%8v → %-7v streams=%d/%d (I=%d N=%d discard=%d)\n",
			i, f.Rate/1e6, f.L, f.T, f.Verdict, len(f.Streams), maxStreams, inc, non, len(f.Streams)-inc-non)
	}
}

// Export serves h on addr for the rest of the process and returns the
// base URL. A scrape endpoint that died is not a degraded mode — the
// operator asked for -export — so a listen or serve failure exits 1
// with a message prefixed by prog, not a log line behind a dead port.
func Export(prog, addr string, h http.Handler) string {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: -export: %v\n", prog, err)
		os.Exit(1)
	}
	url := fmt.Sprintf("http://%s/", ln.Addr())
	go func() {
		err := http.Serve(ln, h)
		fmt.Fprintf(os.Stderr, "%s: export: serving %s failed: %v\n", prog, url, err)
		os.Exit(1)
	}()
	return url
}

// WaitInterrupt blocks until the process is interrupted (Ctrl-C).
func WaitInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}
