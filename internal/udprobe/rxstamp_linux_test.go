//go:build linux

package udprobe

import (
	"bytes"
	"encoding/binary"
	"net"
	"syscall"
	"testing"
	"time"
)

// FuzzRxStamp holds the in-place control-message pick to the standard
// library's parser. Seeds (testdata/fuzz/FuzzRxStamp, amd64 layout): no
// message, a short header, a length past the buffer, another
// SOL_SOCKET message or the same type at another level before the
// stamp, a truncated timespec, a stamp followed by a malformed header.
func FuzzRxStamp(f *testing.F) {
	f.Add(cmsg(syscall.SOL_SOCKET, syscall.SCM_TIMESTAMPNS, timespec(1_700_000_000_123_456_789)))
	f.Fuzz(func(t *testing.T, oob []byte) {
		got, ok := rxStamp(oob)
		want, wantOK := referenceStamp(oob)
		if got != want || ok != wantOK {
			t.Fatalf("rxStamp(%x) = %d, %v; syscall.ParseSocketControlMessage gives %d, %v", oob, got, ok, want, wantOK)
		}
	})
}

// referenceStamp picks the stamp with syscall.ParseSocketControlMessage:
// the first SOL_SOCKET/SCM_TIMESTAMPNS message among those before the
// first malformed header, which are the messages of the longest prefix
// the parser accepts.
func referenceStamp(oob []byte) (int64, bool) {
	for end := len(oob); end >= 0; end-- {
		msgs, err := syscall.ParseSocketControlMessage(oob[:end])
		if err != nil {
			continue
		}
		for _, m := range msgs {
			if m.Header.Level != syscall.SOL_SOCKET || m.Header.Type != syscall.SCM_TIMESTAMPNS {
				continue
			}
			var ts syscall.Timespec
			if binary.Read(bytes.NewReader(m.Data), binary.NativeEndian, &ts) != nil {
				return 0, false
			}
			return ts.Nano(), true
		}
		return 0, false
	}
	return 0, false
}

// cmsg lays out one control message as the kernel writes it.
func cmsg(level, typ int32, data []byte) []byte {
	b := make([]byte, syscall.CmsgSpace(len(data)))
	putWord(b[:cmsgLenSize], uint64(syscall.CmsgLen(len(data))))
	binary.NativeEndian.PutUint32(b[cmsgLenSize:], uint32(level))
	binary.NativeEndian.PutUint32(b[cmsgLenSize+4:], uint32(typ))
	copy(b[syscall.CmsgLen(0):], data)
	return b
}

func timespec(ns int64) []byte {
	b := make([]byte, sizeofTimespec)
	putWord(b[:tsFieldSize], uint64(ns/1e9))
	putWord(b[tsFieldSize:], uint64(ns%1e9))
	return b
}

func putWord(b []byte, v uint64) {
	if len(b) == 8 {
		binary.NativeEndian.PutUint64(b, v)
	} else {
		binary.NativeEndian.PutUint32(b, uint32(v))
	}
}

// dataProber is a prober with a data socket and no control session,
// and a socket that writes into it over loopback.
func dataProber(t *testing.T) (*Prober, *net.UDPConn) {
	t.Helper()
	p, err := listenData()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.udp.Close() })
	tx, err := net.DialUDP("udp", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: p.udp.LocalAddr().(*net.UDPAddr).Port})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	return p, tx
}

// TestProberReadBufferHoldsStream: sized for K = 100 probes of 1 400 B,
// the data socket queues the whole stream while nobody reads it. The
// default 212 992 B buffer holds 92 of them; Linux grants twice the
// request up to twice rmem_max, whose default is that same 212 992 B,
// so the grant covers the stream on a stock kernel.
func TestProberReadBufferHoldsStream(t *testing.T) {
	const K, L = 100, 1400
	p, tx := dataProber(t)
	p.growReadBuffer(K, L)
	for i := 0; i < K; i++ {
		if _, err := tx.Write(make([]byte, L)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.udp.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	got := 0
	for ; got < K; got++ {
		if _, _, err := p.readProbe(); err != nil {
			break
		}
	}
	if got != K {
		t.Errorf("%d of %d unread datagrams survived in a %d B receive buffer", got, K, p.Rx().ReadBuffer)
	}
}

// TestProberStampsArrivalInKernel: datagrams read 50 ms after they
// arrived carry their arrival time, not the read's.
func TestProberStampsArrivalInKernel(t *testing.T) {
	const n, wait = 5, 50 * time.Millisecond
	p, tx := dataProber(t)
	if !p.Rx().KernelStamps {
		t.Fatal("SO_TIMESTAMPNS refused")
	}
	for i := 0; i < n; i++ {
		if _, err := tx.Write(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(wait)
	if err := p.udp.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		read := time.Now().UnixNano()
		_, stamp, err := p.readProbe()
		if err != nil {
			t.Fatal(err)
		}
		if lag := time.Duration(read - stamp); lag < wait {
			t.Errorf("datagram %d: stamp precedes the read by %v, want ≥ %v", i, lag, wait)
		}
		if !p.Rx().KernelStamps {
			t.Errorf("datagram %d: no kernel stamp", i)
		}
	}
}

// TestProberStampFallback: a read whose control messages carry no stamp
// is stamped with time.Now(), and Rx reports it.
func TestProberStampFallback(t *testing.T) {
	p, tx := dataProber(t)
	rc, err := p.udp.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 0)
	}); err != nil || serr != nil {
		t.Fatalf("turning SO_TIMESTAMPNS off: %v, %v", err, serr)
	}
	if _, err := tx.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := p.udp.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	before := time.Now().UnixNano()
	_, stamp, err := p.readProbe()
	after := time.Now().UnixNano()
	if err != nil {
		t.Fatal(err)
	}
	if stamp < before || stamp > after {
		t.Errorf("stamp %d outside the read [%d, %d]", stamp, before, after)
	}
	if p.Rx().KernelStamps {
		t.Error("Rx reports a kernel stamp for a read without one")
	}

	// The pick itself: a stamp after another message is found, none in
	// an empty read.
	oob := append(cmsg(syscall.SOL_SOCKET, syscall.SO_TIMESTAMP, make([]byte, 16)), cmsg(syscall.SOL_SOCKET, syscall.SCM_TIMESTAMPNS, timespec(42e9+7))...)
	if ns := p.stamp(oob); ns != 42e9+7 || !p.Rx().KernelStamps {
		t.Errorf("stamp after SO_TIMESTAMP: %d (kernel %v), want %d from the kernel", ns, p.Rx().KernelStamps, int64(42e9+7))
	}
	if p.stamp(nil); p.Rx().KernelStamps {
		t.Error("Rx reports a kernel stamp for an empty read")
	}
}
