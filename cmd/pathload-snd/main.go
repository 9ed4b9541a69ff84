// Command pathload-snd is the real-network pathload sender daemon. Run
// it at the path's source host; it serves pathload-rcv and
// pathload -monitor -senders control sessions on the TCP control port —
// concurrently, one goroutine and one UDP data socket per session, so a
// single daemon can serve a whole monitored fleet — and emits periodic
// UDP probe streams on request. Sessions that go idle (a vanished
// receiver, a half-open connection) are reaped after -session-timeout.
//
//	pathload-snd -listen :8365
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/udprobe"
)

func main() {
	var (
		listen      = flag.String("listen", ":8365", "TCP control listen address")
		sessTimeout = flag.Duration("session-timeout", 2*time.Minute, "drop control sessions idle longer than this")
		maxSessions = flag.Int("max-sessions", 64, "concurrent control session cap; further connections are refused")
	)
	cli.Parse(flag.CommandLine, os.Args[1:]) // exits 2 on a bad command line

	log.SetPrefix("pathload-snd: ")
	cfg := udprobe.SenderConfig{
		SessionTimeout: *sessTimeout,
		MaxSessions:    *maxSessions,
		Logf:           log.Printf,
	}
	if err := udprobe.ListenAndServe(*listen, cfg); err != nil {
		log.Fatal(err)
	}
}
