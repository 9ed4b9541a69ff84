package udprobe

import (
	"testing"
	"time"

	"repro/internal/wire"

	pathload "repro"
)

// startSender runs a sender daemon on loopback and returns its control
// address. Cleanup waits for Serve — and so for every session goroutine
// that might still call t.Logf — to return before the test completes.
func startSender(t *testing.T) string {
	t.Helper()
	addr, _ := startSenderCfg(t, SenderConfig{Logf: t.Logf})
	return addr
}

// startSenderCfg is startSender with an explicit config; it also
// returns the Sender for tests that drive its lifecycle.
func startSenderCfg(t *testing.T, cfg SenderConfig) (string, *Sender) {
	t.Helper()
	s, err := NewSender("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve()
	}()
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return s.Addr().String(), s
}

// rangeHello is the hello payload a receiver of this build sends: its
// whole version range and the data port.
func rangeHello(port uint16) []byte {
	return wire.MarshalHelloRange(wire.HelloRange{Min: wire.VersionMin, Max: wire.Version, UDPPort: port})
}

// TestStreamRoundTrip exercises the full control + data path over
// loopback: every probe packet should arrive, in order, with sane
// relative OWDs.
func TestStreamRoundTrip(t *testing.T) {
	addr := startSender(t)
	p, err := Dial(addr, ProberConfig{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer p.Close()

	spec := pathload.StreamSpec{
		Rate:  10e6,
		K:     50,
		L:     200,
		T:     200 * time.Microsecond,
		Fleet: 0,
		Index: 0,
	}
	res, err := p.SendStream(spec)
	if err != nil {
		t.Fatalf("SendStream: %v", err)
	}
	if res.Sent != spec.K {
		t.Errorf("sent %d packets, want %d", res.Sent, spec.K)
	}
	if len(res.OWDs) < spec.K*9/10 {
		t.Errorf("received %d of %d packets on loopback", len(res.OWDs), spec.K)
	}
	for i := 1; i < len(res.OWDs); i++ {
		if res.OWDs[i].Seq <= res.OWDs[i-1].Seq {
			t.Fatalf("OWD samples not strictly ordered by seq: %d then %d",
				res.OWDs[i-1].Seq, res.OWDs[i].Seq)
		}
	}
	t.Logf("loopback stream: %d/%d received, flagged=%v, first OWD %v",
		len(res.OWDs), spec.K, res.Flagged, res.OWDs[0].OWD)
}

// TestSequentialStreams checks that stream boundaries are respected:
// stragglers from stream n must not contaminate stream n+1.
func TestSequentialStreams(t *testing.T) {
	addr := startSender(t)
	p, err := Dial(addr, ProberConfig{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer p.Close()

	for i := 0; i < 3; i++ {
		spec := pathload.StreamSpec{K: 20, L: 150, T: 300 * time.Microsecond, Fleet: 1, Index: i}
		res, err := p.SendStream(spec)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if len(res.OWDs) > spec.K {
			t.Errorf("stream %d: %d samples exceed K=%d (cross-stream contamination)", i, len(res.OWDs), spec.K)
		}
		if err := p.Idle(5 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMeasureLoopback runs the complete pathload search against the
// loopback interface. Loopback capacity is effectively unbounded, so
// the tool must finish with its HitMax flag raised rather than invent
// a number.
func TestMeasureLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive loopback measurement")
	}
	addr := startSender(t)
	p, err := Dial(addr, ProberConfig{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer p.Close()

	res, err := pathload.Run(p, pathload.Config{
		PacketsPerStream: 50,
		StreamsPerFleet:  3,
		MaxFleets:        10,
		MinPeriod:        50 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("loopback measurement: %v (ADR %.0f Mb/s)", res, res.ADR/1e6)
}
