package pathload_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fluid"

	pathload "repro"
)

// indexedFluid is a time-invariant prober: a stream's OWDs are a pure
// function of its StreamSpec — the fluid model of paths[Index mod
// len(paths)], flagged when Index mod flagEvery == flagEvery−1 — and no
// clock, counter or random source stands behind it. A fleet that stops
// early therefore sees exactly the prefix of the streams the full fleet
// would have seen, and the next fleet is not affected by when it starts.
type indexedFluid struct {
	paths     []fluid.Path
	flagEvery int
}

func (p *indexedFluid) RTT() time.Duration         { return 10 * time.Millisecond }
func (p *indexedFluid) Idle(d time.Duration) error { return nil }

func (p *indexedFluid) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	path := p.paths[spec.Index%len(p.paths)]
	res := pathload.StreamResult{Sent: spec.K}
	res.Flagged = p.flagEvery > 0 && spec.Index%p.flagEvery == p.flagEvery-1
	for i, owd := range fluid.StreamOWDs(spec.EffectiveRate(), spec.L, spec.K, path) {
		res.OWDs = append(res.OWDs, pathload.OWDSample{Seq: i, OWD: time.Duration(owd * 1e9)})
	}
	return res, nil
}

// searchTranscript renders everything the early fleet exit must leave
// alone: the reported range and flags, and the search's per-fleet rate
// and verdict sequence. Floats print with %v, which round-trips.
func searchTranscript(r pathload.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lo=%v hi=%v grey=%v[%v,%v] max=%v min=%v |", r.Lo, r.Hi, r.GreySet, r.GreyLo, r.GreyHi, r.HitMax, r.HitMin)
	for _, f := range r.Fleets {
		fmt.Fprintf(&b, " %v:%v", f.Rate, f.Verdict)
	}
	return b.String()
}

// TestEarlyExitPreservesSearch is the exact-equality proof of
// "verdict-preserving": on a time-invariant prober every fleet verdict
// — hence every probed rate, Lo, Hi, the grey bounds and the limit
// flags — is what sending all N streams of every fleet produced, while
// the probe load and the measurement latency are strictly smaller. The
// want strings and the full-fleet Bits/Elapsed were captured from the
// commit before the early exit existed (every fleet N streams long) and
// are not regenerated from this code. The floor case (the search floor
// is always 0) was captured later, with only the fleetSettled exit cut
// out of runFleet.
func TestEarlyExitPreservesSearch(t *testing.T) {
	single := func(c, a float64) []fluid.Path { return []fluid.Path{{{C: c, A: a}}} }
	// Avail-bw alternates per stream between 3 and 6 Mb/s: rates in
	// between split the vote evenly, so the search ends in a grey region.
	wobble := []fluid.Path{{{C: 10e6, A: 3e6}}, {{C: 10e6, A: 6e6}}}
	const wobbleWant = "lo=2.9527559055118114e+06 hi=7.381889763779528e+06 grey=true[4.429133858267717e+06,5.905511811023623e+06] max=false min=false | 5.905511811023623e+06:grey 8.858267716535434e+06:R>A 2.9527559055118114e+06:R<A 7.381889763779528e+06:R>A 4.429133858267717e+06:grey"
	// One stream in four sees the low avail-bw: in between, 9 of 12
	// streams are non-increasing, just past f·N = 8.4.
	skewed := []fluid.Path{{{C: 10e6, A: 6e6}}, {{C: 10e6, A: 6e6}}, {{C: 10e6, A: 6e6}}, {{C: 10e6, A: 3e6}}}
	multihop := []fluid.Path{{
		{C: 622e6, A: 500e6},
		{C: 100e6, A: 95e6},
		{C: 155e6, A: 74e6},
		{C: 622e6, A: 400e6},
	}}
	for _, tc := range []struct {
		name        string
		prober      *indexedFluid
		cfg         pathload.Config
		want        string
		fullBits    float64
		fullElapsed time.Duration
	}{
		{"oc3", &indexedFluid{paths: single(155e6, 74e6)}, pathload.Config{},
			"lo=7.319845986254963e+07 hi=7.410214455221073e+07 grey=false[0,0] max=false min=false | 5.783582013831082e+07:R<A 8.675373020746623e+07:R>A 7.229477517288852e+07:R<A 7.952425269017738e+07:R>A 7.590951393153295e+07:R>A 7.410214455221073e+07:R>A 7.319845986254963e+07:R<A", 6.25536e+07, 7782000000},
		{"10M", &indexedFluid{paths: single(10e6, 4e6)}, pathload.Config{},
			"lo=3.720238095238095e+06 hi=4.464285714285715e+06 grey=false[0,0] max=false min=false | 5.952380952380952e+06:R>A 2.976190476190476e+06:R<A 4.464285714285715e+06:R>A 3.720238095238095e+06:R<A", 3.9264e+06, 8509494000},
		{"10M six streams", &indexedFluid{paths: single(10e6, 4e6)}, pathload.Config{StreamsPerFleet: 6},
			"lo=3.720238095238095e+06 hi=4.464285714285715e+06 grey=false[0,0] max=false min=false | 5.952380952380952e+06:R>A 2.976190476190476e+06:R<A 4.464285714285715e+06:R>A 3.720238095238095e+06:R<A", 2.0832e+06, 3916254000},
		{"multihop", &indexedFluid{paths: multihop}, pathload.Config{},
			"lo=7.388770571259066e+07 hi=7.470868022050834e+07 grey=false[0,0] max=false min=false | 5.254236850673114e+07:R<A 7.88135527600967e+07:R>A 6.567796063341392e+07:R<A 7.22457566967553e+07:R<A 7.552965472842601e+07:R>A 7.388770571259066e+07:R<A 7.470868022050834e+07:R>A", 5.94144e+07, 7782000000},
		{"ends grey", &indexedFluid{paths: wobble}, pathload.Config{},
			wobbleWant, 4.9824e+06, 8532104700},
		{"ends grey six streams f=0.6", &indexedFluid{paths: wobble}, pathload.Config{StreamsPerFleet: 6, FleetFraction: 0.6},
			wobbleWant, 2.6112e+06, 3926642700},
		{"skewed vote", &indexedFluid{paths: skewed}, pathload.Config{},
			"lo=5.292338709677419e+06 hi=6.0483870967741925e+06 grey=false[0,0] max=false min=false | 6.0483870967741925e+06:R>A 3.0241935483870963e+06:R<A 4.536290322580645e+06:R<A 5.292338709677419e+06:R<A", 3.9264e+06, 7730318400},
		{"every fourth stream discarded", &indexedFluid{paths: wobble, flagEvery: 4}, pathload.Config{},
			wobbleWant, 4.9824e+06, 8532104700},
		{"above the probing limit", &indexedFluid{paths: single(155e6, 140e6)}, pathload.Config{},
			"lo=1.190625e+08 hi=1.2e+08 grey=false[0,0] max=true min=false | 6e+07:R<A 9e+07:R<A 1.05e+08:R<A 1.125e+08:R<A 1.1625e+08:R<A 1.18125e+08:R<A 1.190625e+08:R<A", 8.6736e+07, 7782000000},
		{"floor", &indexedFluid{paths: single(10e6, 0.2e6)}, pathload.Config{DisableInitProbe: true, MaxRate: 4e6},
			"lo=0 hi=1e+06 grey=false[0,0] max=false min=true | 2e+06:R>A 1e+06:R>A", 1.8432e+06, 12787200000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := pathload.Run(tc.prober, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := searchTranscript(res); got != tc.want {
				t.Errorf("search moved:\n got %s\nwant %s", got, tc.want)
			}
			if !(res.Bits < tc.fullBits) || !(res.Elapsed < tc.fullElapsed) {
				t.Errorf("Bits = %v, Elapsed = %v; want strictly below the full-fleet run's %v, %v",
					res.Bits, res.Elapsed, tc.fullBits, tc.fullElapsed)
			}
		})
	}
}
