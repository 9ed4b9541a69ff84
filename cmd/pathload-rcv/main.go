// Command pathload-rcv measures the available bandwidth from a
// pathload-snd host to this host. It drives the measurement over the
// TCP control channel and timestamps the UDP probe streams locally;
// clocks need not be synchronized (SLoPS uses only relative one-way
// delays).
//
//	pathload-rcv -sender srchost:8365
//
// The measurement direction is sender → receiver, i.e. the downstream
// avail-bw of this host relative to the sender.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/udprobe"

	pathload "repro"
)

func main() {
	var (
		sender = flag.String("sender", "", "pathload-snd control address (host:port)")
		k      = flag.Int("k", pathload.DefaultPacketsPerStream, "packets per stream (K)")
		n      = flag.Int("n", pathload.DefaultStreamsPerFleet, "streams per fleet (N, at most: a decided fleet stops early)")
		omega  = flag.Float64("omega", pathload.DefaultResolution/1e6, "estimation resolution ω, Mb/s")
		chi    = flag.Float64("chi", pathload.DefaultGreyResolution/1e6, "grey resolution χ, Mb/s")
		maxMbs = flag.Float64("max", 0, "cap the probed rate, Mb/s (0: MTU/Tmin limit)")
		v      = flag.Bool("v", false, "log every fleet")
	)
	flag.Parse()
	log.SetPrefix("pathload-rcv: ")
	if *sender == "" {
		flag.Usage()
		os.Exit(2)
	}

	p, err := udprobe.Dial(*sender, udprobe.ProberConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	log.Printf("connected to %s (control RTT %v)", *sender, p.RTT().Round(time.Microsecond))

	start := time.Now()
	res, err := pathload.Run(p, pathload.Config{
		PacketsPerStream: *k,
		StreamsPerFleet:  *n,
		Resolution:       *omega * 1e6,
		GreyResolution:   *chi * 1e6,
		MaxRate:          *maxMbs * 1e6,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *v {
		maxStreams := *n
		if maxStreams == 0 { // Config reads 0 as the default
			maxStreams = pathload.DefaultStreamsPerFleet
		}
		for i, f := range res.Fleets {
			fmt.Printf("fleet %2d: R=%8.2f Mb/s → %-7v streams=%d/%d\n", i, f.Rate/1e6, f.Verdict, len(f.Streams), maxStreams)
		}
	}
	fmt.Printf("measured: %v\n", res)
	fmt.Printf("ADR init: %.2f Mb/s\n", res.ADR/1e6)
	fmt.Printf("elapsed:  %v\n", time.Since(start).Round(time.Millisecond))
}
