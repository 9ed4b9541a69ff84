package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	pathload "repro"
	"repro/internal/udprobe"
)

// udp_loopback: real sockets over the host's loopback interface, on the
// wall clock, nothing simulated. One in-process sender daemon, one
// receiver-side prober, streams back to back.

const (
	udpStreams      = 100 // per block
	udpStreamsSmoke = 10
	udpK            = 100 // packets per stream, the paper's K
	udpWarmStreams  = 5   // sent during set-up, so sockets, buffers and the pacing thread are warm
	// udpCollectSlack replaces the receiver's 200 ms default, which is
	// sized for wide-area queueing. Loopback has none, and at the default
	// one lost packet would cost as much time as seven whole streams.
	udpCollectSlack = 20 * time.Millisecond
)

// Stream periods and packet sizes are a seeded shuffle of an even grid
// over these ranges, so every block paces the same total time and only
// the order depends on the seed.
const (
	udpMinT, udpMaxT = 100 * time.Microsecond, 500 * time.Microsecond
	udpMinL, udpMaxL = 200, 1400
)

type udpLoopback struct {
	opts runOpts
	// traced blocks only
	streams, flagged, clean int
	sent, received          int
	noiseUs                 []float64 // |OWD(i) − OWD(i−1)| within a stream
	overheadMs              []float64
}

func udpSpecs(n int, seed int64) []pathload.StreamSpec {
	rng := rand.New(rand.NewSource(seed))
	ts, ls := rng.Perm(n), rng.Perm(n)
	specs := make([]pathload.StreamSpec, n)
	for i := range specs {
		t := udpMinT + time.Duration(float64(udpMaxT-udpMinT)*(float64(ts[i])+0.5)/float64(n))
		l := udpMinL + int(float64(udpMaxL-udpMinL)*(float64(ls[i])+0.5)/float64(n))
		specs[i] = pathload.StreamSpec{Rate: float64(l) * 8 / t.Seconds(), K: udpK, L: l, T: t, Fleet: i / 12, Index: i % 12}
	}
	return specs
}

func (f *udpLoopback) block(c blockCtx) (b blockResult, err error) {
	n := udpStreams
	if c.smoke {
		n = udpStreamsSmoke
	}
	specs := udpSpecs(n, c.seed)

	t0 := time.Now()
	sender, err := udprobe.NewSender("127.0.0.1:0", udprobe.SenderConfig{})
	if err != nil {
		return b, err
	}
	served := make(chan error, 1)
	go func() { served <- sender.Serve() }()
	stop := func() error { // Serve returns once every session has unwound
		sender.Close()
		return <-served
	}
	raw, err := udprobe.Dial(sender.Addr().String(), udprobe.ProberConfig{CollectSlack: udpCollectSlack})
	if err != nil {
		stop()
		return b, err
	}
	warm := pathload.StreamSpec{K: udpK, L: (udpMinL + udpMaxL) / 2, T: (udpMinT + udpMaxT) / 2}
	for i := 0; i < udpWarmStreams; i++ {
		if _, err := raw.SendStream(warm); err != nil {
			raw.Close()
			stop()
			return b, fmt.Errorf("warm-up stream: %w", err)
		}
	}
	var prober pathload.Prober = raw
	if c.tracer != nil {
		prober = &tracedProber{inner: raw, lane: c.tracer.lane("loopback")}
	}
	b.setup = time.Since(t0)

	results := make([]pathload.StreamResult, n)
	overheadMs := make([]float64, 0, n)
	measured(&b, func() {
		for i, spec := range specs {
			t := time.Now()
			res, serr := prober.SendStream(spec)
			wall := time.Since(t)
			if serr != nil {
				b.failed++
				b.problems = append(b.problems, fmt.Sprintf("stream %d: %v", i, serr))
				continue
			}
			results[i] = res
			b.latencyMs = append(b.latencyMs, float64(wall)/1e6)
			overheadMs = append(overheadMs, float64(wall-time.Duration(spec.K-1)*spec.T)/1e6)
		}
	})
	raw.Close()
	if err := stop(); err != nil {
		return b, err
	}

	b.ops = n
	for i, res := range results {
		if res.Sent != udpK {
			if res.Sent != 0 { // an errored stream is already counted
				b.failed++
				b.problems = append(b.problems, fmt.Sprintf("stream %d: sent %d of %d", i, res.Sent, udpK))
			}
			continue
		}
		b.ioBytes += float64(res.Sent * specs[i].L)
		b.graded += res.Sent
		b.good += len(res.OWDs)
		if c.tracer == nil {
			continue
		}
		f.streams++
		if len(res.OWDs) == udpK && !res.Flagged {
			f.clean++
		}
		f.sent += res.Sent
		f.received += len(res.OWDs)
		if res.Flagged {
			f.flagged++
		}
		for j := 1; j < len(res.OWDs); j++ {
			f.noiseUs = append(f.noiseUs, math.Abs(float64(res.OWDs[j].OWD-res.OWDs[j-1].OWD))/1e3)
		}
	}
	if c.tracer != nil {
		f.overheadMs = append(f.overheadMs, overheadMs...)
	}
	return b, nil
}

func (f *udpLoopback) layers(rep *report, _ *tracer, _ []span, _ []blockResult) {
	nNoise := fmt.Sprintf("n=%d packet pairs", len(f.noiseUs))
	rep.set("udprobe.owd_noise_us_p50", quantile(f.noiseUs, 0.50), nNoise)
	rep.set("udprobe.owd_noise_us_p99", quantile(f.noiseUs, 0.99), nNoise)
	nStreams := fmt.Sprintf("%d streams", f.streams)
	rep.set("udprobe.clean_stream_ratio", float64(f.clean)/float64(f.streams), nStreams+"; every packet arrived and the sender did not flag its pacing")
	rep.set("udprobe.flagged_ratio", float64(f.flagged)/float64(f.streams), nStreams)
	rep.set("udprobe.loss_ppm", 1e6*float64(f.sent-f.received)/float64(f.sent), fmt.Sprintf("%d packets sent", f.sent))
	rep.set("udprobe.stream_overhead_ms_p50", median(f.overheadMs), fmt.Sprintf("SendStream wall − (K−1)·T; n=%d", len(f.overheadMs)))
	marshal, unmarshal, allocs := microWire(f.opts.probeLimit())
	rep.setMicro("wire.marshal_probe_ns", marshal)
	rep.setMicro("wire.unmarshal_probe_ns", unmarshal)
	rep.set("wire.marshal_probe_allocs", allocs, fmt.Sprintf("testing.AllocsPerRun, %d-byte probe", microProbeSize))
}
