//go:build linux

package udprobe

import (
	"encoding/binary"
	"net"
	"syscall"
	"unsafe"
)

// The layout of the one control message the data socket asks for: a
// struct cmsghdr, then a struct timespec, both in native byte order.
const (
	cmsgLenSize    = int(unsafe.Sizeof(syscall.Cmsghdr{}.Len)) // 8 on 64-bit, 4 on 32-bit
	cmsgAlign      = int(unsafe.Sizeof(uintptr(0)))            // CMSG_ALIGN's unit
	tsFieldSize    = int(unsafe.Sizeof(syscall.Timespec{}.Sec))
	sizeofTimespec = int(unsafe.Sizeof(syscall.Timespec{}))
)

// rxOOBSize holds one SCM_TIMESTAMPNS message.
var rxOOBSize = syscall.CmsgSpace(sizeofTimespec)

// enableKernelStamps asks the kernel to stamp every datagram with its
// arrival time (SO_TIMESTAMPNS, CLOCK_REALTIME) and reports whether it
// agreed.
func enableKernelStamps(c *net.UDPConn) bool {
	rc, err := c.SyscallConn()
	if err != nil {
		return false
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return false
	}
	return serr == nil
}

// grantedReadBuffer reads back the receive buffer the kernel granted:
// twice the request, capped at twice rmem_max.
func grantedReadBuffer(c *net.UDPConn, asked int) int {
	rc, err := c.SyscallConn()
	if err != nil {
		return asked
	}
	n, serr := asked, error(nil)
	if err := rc.Control(func(fd uintptr) {
		n, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil || serr != nil {
		return asked
	}
	return n
}

// rxStamp picks the SCM_TIMESTAMPNS stamp out of one read's control
// messages, in Unix nanoseconds, without copying them: the walk
// syscall.ParseSocketControlMessage makes, minus its slice per call,
// which would be one allocation per packet. A malformed header or a
// short timespec ends the walk with no stamp.
func rxStamp(oob []byte) (int64, bool) {
	hdr := syscall.CmsgLen(0)
	for len(oob) >= hdr {
		l := nativeWord(oob[:cmsgLenSize])
		if l < uint64(hdr) || l > uint64(len(oob)) {
			return 0, false
		}
		level := int32(binary.NativeEndian.Uint32(oob[cmsgLenSize:]))
		typ := int32(binary.NativeEndian.Uint32(oob[cmsgLenSize+4:]))
		if level == syscall.SOL_SOCKET && typ == syscall.SCM_TIMESTAMPNS {
			ts := oob[hdr:l]
			if len(ts) < sizeofTimespec {
				return 0, false
			}
			sec, nsec := nativeWord(ts[:tsFieldSize]), nativeWord(ts[tsFieldSize:2*tsFieldSize])
			return int64(sec)*1e9 + int64(nsec), true
		}
		next := (int(l) + cmsgAlign - 1) &^ (cmsgAlign - 1)
		if next > len(oob) {
			break
		}
		oob = oob[next:]
	}
	return 0, false
}

// nativeWord reads a 4- or 8-byte native-order integer, sign-extending
// the 4-byte form so a 32-bit timespec field keeps its sign.
func nativeWord(b []byte) uint64 {
	if len(b) == 8 {
		return binary.NativeEndian.Uint64(b)
	}
	return uint64(int64(int32(binary.NativeEndian.Uint32(b))))
}
