package cli

import (
	"strings"
	"testing"
	"time"

	pathload "repro"
)

// TestLogFleets pins the -v line: verdict counts per stream kind and
// the streams sent against the most a fleet may send (0 reads as the
// default N).
func TestLogFleets(t *testing.T) {
	res := pathload.Result{Fleets: []pathload.FleetTrace{{
		Rate: 4e6, L: 200, T: 400 * time.Microsecond, Verdict: pathload.FleetAbove,
		Streams: []pathload.StreamTrace{
			{Kind: pathload.StreamIncreasing}, {Kind: pathload.StreamIncreasing},
			{Kind: pathload.StreamNonIncreasing}, {Kind: pathload.StreamDiscarded},
		},
	}}}
	var b strings.Builder
	LogFleets(&b, res, pathload.Config{})
	want := "fleet  0: R=   4.00 Mb/s L= 200B T=   400µs → R>A     streams=4/12 (I=2 N=1 discard=1)\n"
	if b.String() != want {
		t.Errorf("LogFleets =\n%q, want\n%q", b.String(), want)
	}
}
