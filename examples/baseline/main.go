// baseline contrasts the two measurement philosophies the paper's §II
// discusses on one simulated path: cprobe-style packet-train
// dispersion (which actually measures the asymptotic dispersion rate,
// a quantity between the avail-bw and the capacity) versus SLoPS
// (which measures the avail-bw itself). The gap between the two grows
// with load.
package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

func main() {
	for _, util := range []float64{0.3, 0.6, 0.8} {
		net := experiments.Topology{TightUtil: util, Seed: 21}.Build()
		net.Warmup(3 * netsim.Second)
		prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)

		cp, err := baseline.Cprobe(prober)
		if err != nil {
			panic(err)
		}
		pl, err := pathload.Run(prober, pathload.Config{})
		if err != nil {
			panic(err)
		}

		a := net.Topo.AvailBw()
		fmt.Printf("tight link at %.0f%% load (true avail-bw %.1f Mb/s):\n", util*100, a/1e6)
		fmt.Printf("  cprobe (train dispersion): %6.2f Mb/s  (%+.0f%% off)\n",
			cp.Estimate/1e6, (cp.Estimate-a)/a*100)
		fmt.Printf("  pathload (SLoPS):          %v\n\n", pl)
	}
	fmt.Println("Train dispersion reports the ADR, not the avail-bw — the paper's")
	fmt.Println("§II motivation for building SLoPS in the first place.")
}
