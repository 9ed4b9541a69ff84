//go:build !linux

package udprobe

import "net"

// Elsewhere the data socket asks for no control messages: every
// arrival is stamped with time.Now() once the read returns, and the
// granted receive buffer is taken to be the one asked for.

const rxOOBSize = 0

func enableKernelStamps(*net.UDPConn) bool { return false }

func grantedReadBuffer(_ *net.UDPConn, asked int) int { return asked }

func rxStamp([]byte) (int64, bool) { return 0, false }
