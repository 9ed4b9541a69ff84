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

	"repro/internal/cli"
	"repro/internal/udprobe"

	pathload "repro"
)

func main() {
	var (
		sender  = flag.String("sender", "", "pathload-snd control address (host:port)")
		measure = cli.MeasureFlags(flag.CommandLine)
		maxMbs  = flag.Float64("max", 0, "cap the probed rate, Mb/s (0: MTU/Tmin limit)")
		v       = flag.Bool("v", false, "log every fleet")
	)
	cli.Parse(flag.CommandLine, os.Args[1:]) // exits 2 on a bad command line
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

	cfg := measure()
	cfg.MaxRate = *maxMbs * 1e6
	start := time.Now()
	res, err := pathload.Run(p, cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *v {
		cli.LogFleets(os.Stdout, res, cfg)
	}
	fmt.Printf("measured: %v\n", res)
	fmt.Printf("ADR init: %.2f Mb/s\n", res.ADR/1e6)
	fmt.Printf("elapsed:  %v\n", time.Since(start).Round(time.Millisecond))
}
