package udprobe

import (
	"net"
	"testing"
	"time"

	"repro/internal/wire"

	pathload "repro"
)

// TestSenderSurvivesGarbageControl: a client speaking garbage must get
// its session dropped without taking the daemon down.
func TestSenderSurvivesGarbageControl(t *testing.T) {
	addr := startSender(t)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The daemon must still serve a well-behaved client afterwards.
	p, err := Dial(addr, ProberConfig{})
	if err != nil {
		t.Fatalf("Dial after garbage session: %v", err)
	}
	defer p.Close()
	res, err := p.SendStream(pathload.StreamSpec{K: 10, L: 150, T: 300 * time.Microsecond})
	if err != nil {
		t.Fatalf("SendStream after garbage session: %v", err)
	}
	if res.Sent != 10 {
		t.Fatalf("sent %d, want 10", res.Sent)
	}
}

// TestSenderRejectsWrongVersion: version mismatches fail the handshake
// rather than mis-measuring.
func TestSenderRejectsWrongVersion(t *testing.T) {
	addr := startSender(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{Version: 99, UDPPort: 1})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := wire.ReadMessage(conn); err == nil {
		t.Fatal("sender acknowledged an incompatible protocol version")
	}
}

// TestSenderBoundsStreamRequests: absurd K or L must terminate the
// session, not allocate gigabytes or flood the network. The payload
// bound is the largest IPv4 UDP payload, 65507 bytes: one byte more is
// refused before any write, and a one-packet stream at the bound is
// served.
func TestSenderBoundsStreamRequests(t *testing.T) {
	addr := startSender(t)
	udp, err := net.ListenUDP("udp", &net.UDPAddr{})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	port := uint16(udp.LocalAddr().(*net.UDPAddr).Port)

	for _, tc := range []struct {
		req    wire.StreamRequest
		served bool
	}{
		{wire.StreamRequest{K: 1 << 30, L: 1 << 20, PeriodNs: 1}, false},
		{wire.StreamRequest{K: 1, L: 65_508, PeriodNs: 1000}, false},
		{wire.StreamRequest{K: 1, L: 65_507, PeriodNs: 1000}, true},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHello(wire.Hello{Version: wire.Version, UDPPort: port})); err != nil {
			t.Fatal(err)
		}
		if mt, _, err := wire.ReadMessage(conn); err != nil || mt != wire.MsgHelloAck {
			t.Fatalf("handshake: %v %v", mt, err)
		}
		if err := wire.WriteMessage(conn, wire.MsgStreamRequest, wire.MarshalStreamRequest(tc.req)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		mt, payload, err := wire.ReadMessage(conn)
		conn.Close()
		if !tc.served {
			if err == nil && mt == wire.MsgStreamDone {
				t.Errorf("K=%d L=%d: sender executed an out-of-bounds stream request", tc.req.K, tc.req.L)
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Errorf("K=%d L=%d: session still open after an out-of-bounds request", tc.req.K, tc.req.L)
			}
			continue
		}
		if err != nil || mt != wire.MsgStreamDone {
			t.Fatalf("K=%d L=%d: %v %v, want a stream-done reply", tc.req.K, tc.req.L, mt, err)
		}
		done, err := wire.UnmarshalStreamDone(payload)
		if err != nil {
			t.Fatal(err)
		}
		if done.Sent != 1 || done.Flagged != 0 {
			t.Errorf("K=%d L=%d: sent %d flagged %d, want one clean packet", tc.req.K, tc.req.L, done.Sent, done.Flagged)
		}
	}
}

// TestProberTimeoutOnSilentSender: a sender that never answers must
// yield a timeout error, not a hang.
func TestProberTimeoutOnSilentSender(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Accept and stay silent.
			defer c.Close()
		}
	}()
	start := time.Now()
	_, err = Dial(ln.Addr().String(), ProberConfig{ControlTimeout: 500 * time.Millisecond})
	if err == nil {
		t.Fatal("Dial succeeded against a silent peer")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout took %v, want bounded by ControlTimeout", time.Since(start))
	}
}
