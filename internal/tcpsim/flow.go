// Package tcpsim implements a TCP Reno/NewReno bulk-transfer sender
// and receiver over the discrete-event simulator, plus a periodic
// Pinger. It is the substrate for the paper's §VII (relation between
// avail-bw and the throughput of a "greedy" BTC connection) and §VIII
// (intrusiveness): a loss-driven AIMD sender that fills drop-tail
// queues until overflow, inflating path RTTs, exactly the mechanism the
// paper credits for BTC connections grabbing more than the previously
// available bandwidth.
//
// The model: data segments traverse the forward simulated path and are
// subject to its queueing and drops; acknowledgments return over an
// uncongested reverse path with constant delay, matching the paper's
// focus on forward-path effects.
package tcpsim

import (
	"fmt"

	"repro/internal/eventq"
	"repro/internal/netsim"
)

// The sender's fixed parameters: a standard Ethernet-framed bulk
// transfer.
const (
	// mssBytes is the maximum segment payload.
	mssBytes = 1460
	// headerBytes is the TCP/IP header overhead added to each data
	// segment's wire size, so a full segment fills a 1500-byte frame.
	// Acks are pure headers.
	headerBytes = 40
	// initCwndSegments is the initial congestion window.
	initCwndSegments = 2
	// minRTO and maxRTO clamp the retransmission timeout.
	minRTO = 200 * netsim.Millisecond
	maxRTO = 60 * netsim.Second
	// defaultRcvWindow is the receiver's advertised window NewFlow
	// assumes for a zero rcvWindow, effectively unlimited at the
	// capacities simulated here ("a persistent TCP connection with
	// sufficiently large advertised window").
	defaultRcvWindow = 4 << 20
)

// segment is the payload of a simulated TCP data packet.
type segment struct {
	seq  int64 // first payload byte
	len  int   // payload bytes
	retx bool  // retransmission (Karn: no RTT sample)
}

// A DeliveryPoint records cumulative in-order bytes at the receiver,
// the series the §VII throughput plots are computed from.
type DeliveryPoint struct {
	At    netsim.Time
	Bytes int64
}

// A Flow is one bulk TCP connection: sender and receiver state coupled
// through the simulated forward path and a constant-delay reverse path.
type Flow struct {
	sim     *netsim.Simulator
	route   []*netsim.Link
	reverse netsim.Time
	// rcvWindow is the receiver's advertised window in bytes.
	rcvWindow int
	name      string

	running bool

	// Sender state, all in bytes.
	cwnd, ssthresh float64
	sndUna         int64 // lowest unacknowledged byte
	nextSeq        int64 // next byte to send
	dupAcks        int
	inRecovery     bool
	recover        int64 // NewReno recovery point
	partialAcks    int   // partial acks seen in this recovery episode
	highestSent    int64 // highest sequence ever transmitted

	// RTT estimation (RFC 6298 shape).
	srtt, rttvar, rto netsim.Time
	rtoBackoff        int
	rtoTimer          eventq.Handle
	sendTimes         map[int64]netsim.Time // segment end-seq → first-send time

	// Receiver state.
	rcvNext int64
	ooo     map[int64]int64 // out-of-order runs: start → end

	// Statistics.
	deliveries      []DeliveryPoint
	retransmissions int
	timeouts        int
	recoveries      int
}

// NewFlow creates a bulk flow that sends over route and receives acks
// after the constant reverse delay. rcvWindow is the receiver's
// advertised window in bytes; 0 selects an effectively unlimited
// 4 MiB. name labels diagnostics.
func NewFlow(sim *netsim.Simulator, name string, route []*netsim.Link, reverse netsim.Time, rcvWindow int) *Flow {
	if len(route) == 0 {
		panic("tcpsim: flow needs a route")
	}
	if rcvWindow == 0 {
		rcvWindow = defaultRcvWindow
	}
	f := &Flow{
		sim:       sim,
		route:     route,
		reverse:   reverse,
		rcvWindow: rcvWindow,
		name:      name,
		ssthresh:  float64(rcvWindow),
		cwnd:      float64(initCwndSegments * mssBytes),
		rto:       1 * netsim.Second, // RFC 6298 initial RTO
		sendTimes: make(map[int64]netsim.Time),
		ooo:       make(map[int64]int64),
	}
	return f
}

// Start begins (or resumes) transmission.
func (f *Flow) Start() {
	if f.running {
		return
	}
	f.running = true
	f.trySend()
}

// Stop pauses the sender. In-flight segments drain; their acks still
// update state so a later Start resumes cleanly.
func (f *Flow) Stop() {
	f.running = false
	f.stopRTOTimer()
}

// Delivered returns cumulative in-order bytes at the receiver.
func (f *Flow) Delivered() int64 { return f.rcvNext }

// Deliveries returns the timestamped in-order delivery series.
func (f *Flow) Deliveries() []DeliveryPoint { return f.deliveries }

// Retransmissions returns the count of retransmitted segments.
func (f *Flow) Retransmissions() int { return f.retransmissions }

// Timeouts returns the count of RTO expirations.
func (f *Flow) Timeouts() int { return f.timeouts }

// Recoveries returns the count of fast-recovery episodes.
func (f *Flow) Recoveries() int { return f.recoveries }

// Cwnd returns the current congestion window in bytes.
func (f *Flow) Cwnd() float64 { return f.cwnd }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (f *Flow) SRTT() netsim.Time { return f.srtt }

// flight returns the outstanding bytes.
func (f *Flow) flight() int64 { return f.nextSeq - f.sndUna }

// window returns the sender's current usable window in bytes.
func (f *Flow) window() int64 {
	w := int64(f.cwnd)
	if rw := int64(f.rcvWindow); w > rw {
		w = rw
	}
	return w
}

// trySend emits new segments while the window allows.
func (f *Flow) trySend() {
	if !f.running {
		return
	}
	for f.flight()+int64(mssBytes) <= f.window() {
		f.sendSegment(f.nextSeq, false)
		f.nextSeq += int64(mssBytes)
		if f.nextSeq > f.highestSent {
			f.highestSent = f.nextSeq
		}
	}
	// Arm-if-idle only: restarting here would let the steady dup-ack
	// stream of a long recovery postpone the timeout forever.
	f.ensureRTOTimer()
}

// sendSegment injects one data segment into the forward path.
func (f *Flow) sendSegment(seq int64, retx bool) {
	seg := segment{seq: seq, len: mssBytes, retx: retx}
	end := seq + int64(seg.len)
	if retx {
		f.retransmissions++
		delete(f.sendTimes, end) // Karn: never sample retransmitted segments
	} else {
		f.sendTimes[end] = f.sim.Now()
	}
	pkt := &netsim.Packet{
		Size:    int32(seg.len + headerBytes),
		Payload: seg,
	}
	f.sim.Inject(pkt, f.route, f.receive)
}

// receive is the receiver side: in-order delivery tracking and
// immediate cumulative acks (dup acks arise naturally from gaps).
func (f *Flow) receive(pkt *netsim.Packet, at netsim.Time) {
	seg := pkt.Payload.(segment)
	end := seg.seq + int64(seg.len)
	switch {
	case end <= f.rcvNext:
		// Duplicate of already-delivered data.
	case seg.seq <= f.rcvNext:
		f.rcvNext = end
		f.absorbOutOfOrder()
		f.deliveries = append(f.deliveries, DeliveryPoint{At: at, Bytes: f.rcvNext})
	default:
		// Out of order: remember the run.
		if cur, ok := f.ooo[seg.seq]; !ok || end > cur {
			f.ooo[seg.seq] = end
		}
	}
	ackNo := f.rcvNext
	f.sim.After(f.reverse, func() { f.onAck(ackNo) })
}

// absorbOutOfOrder advances rcvNext through buffered runs.
func (f *Flow) absorbOutOfOrder() {
	for {
		advanced := false
		for start, end := range f.ooo {
			if start <= f.rcvNext {
				if end > f.rcvNext {
					f.rcvNext = end
				}
				delete(f.ooo, start)
				advanced = true
			}
		}
		if !advanced {
			return
		}
	}
}

// onAck is the sender's ack processing: Reno congestion control with
// NewReno partial-ack recovery.
func (f *Flow) onAck(ackNo int64) {
	if ackNo > f.sndUna {
		f.sampleRTT(ackNo)
		newly := ackNo - f.sndUna
		f.sndUna = ackNo
		if f.inRecovery {
			if ackNo >= f.recover {
				// Full ack: leave recovery, deflate to ssthresh.
				f.inRecovery = false
				f.cwnd = f.ssthresh
				f.dupAcks = 0
			} else {
				// Partial ack: retransmit the next hole, deflate by
				// the amount acked (NewReno).
				f.partialAcks++
				f.sendSegment(f.sndUna, true)
				f.cwnd -= float64(newly)
				if f.cwnd < float64(mssBytes) {
					f.cwnd = float64(mssBytes)
				}
				f.cwnd += float64(mssBytes)
				// RFC 6582 "impatient" timer: only the first partial
				// ack resets the RTO. A burst loss of many segments
				// would otherwise be repaired one hole per RTT while
				// partial acks keep the timer alive indefinitely; the
				// impatient variant lets the RTO fire and slow start
				// resynchronize in a couple of round trips.
				if f.partialAcks == 1 {
					f.armRTOTimer()
				}
				f.trySend()
				return
			}
		} else {
			f.dupAcks = 0
			mss := float64(mssBytes)
			if f.cwnd < f.ssthresh {
				f.cwnd += mss // slow start
			} else {
				f.cwnd += mss * mss / f.cwnd // congestion avoidance
			}
		}
		f.armRTOTimer()
		f.trySend()
		return
	}

	// Duplicate ack.
	if f.flight() == 0 {
		return
	}
	f.dupAcks++
	switch {
	case f.inRecovery:
		// Inflate during recovery; each dup ack signals a departure.
		f.cwnd += float64(mssBytes)
		f.trySend()
	case f.dupAcks == 3 && f.sndUna >= f.recover:
		// RFC 6582 "avoid multiple fast retransmits": dup acks below
		// the last recovery point belong to an old window (typically
		// the duplicate flood after a go-back-N timeout) and must not
		// trigger another halving.
		f.enterRecovery()
	}
}

// enterRecovery performs fast retransmit / fast recovery.
func (f *Flow) enterRecovery() {
	mss := float64(mssBytes)
	half := float64(f.flight()) / 2
	if half < 2*mss {
		half = 2 * mss
	}
	f.ssthresh = half
	f.recover = f.nextSeq
	f.inRecovery = true
	f.partialAcks = 0
	f.recoveries++
	// Karn: abandon pending RTT samples. Segments already in flight
	// may be cumulatively acknowledged only after the holes ahead of
	// them are repaired, which would record ack-release time (which can
	// be many seconds) instead of round-trip time and freeze the RTO.
	clear(f.sendTimes)
	f.sendSegment(f.sndUna, true)
	f.cwnd = f.ssthresh + 3*mss
	f.armRTOTimer()
}

// sampleRTT updates the RFC 6298 estimator from a cumulative ack, if
// the ack exactly covers a once-transmitted segment.
func (f *Flow) sampleRTT(ackNo int64) {
	sent, ok := f.sendTimes[ackNo]
	if ok {
		r := f.sim.Now() - sent
		if f.srtt == 0 {
			f.srtt = r
			f.rttvar = r / 2
		} else {
			diff := f.srtt - r
			if diff < 0 {
				diff = -diff
			}
			f.rttvar = (3*f.rttvar + diff) / 4
			f.srtt = (7*f.srtt + r) / 8
		}
		f.rto = f.srtt + 4*f.rttvar
		f.clampRTO()
		f.rtoBackoff = 0
	}
	// Drop sample bookkeeping for everything now acknowledged.
	for end := range f.sendTimes {
		if end <= ackNo {
			delete(f.sendTimes, end)
		}
	}
}

func (f *Flow) clampRTO() {
	if f.rto < minRTO {
		f.rto = minRTO
	}
	if f.rto > maxRTO {
		f.rto = maxRTO
	}
}

// armRTOTimer restarts the retransmission timer if data is outstanding.
func (f *Flow) armRTOTimer() {
	f.stopRTOTimer()
	f.ensureRTOTimer()
}

// ensureRTOTimer arms the timer only when it is not already pending.
func (f *Flow) ensureRTOTimer() {
	if f.rtoTimer.Pending() {
		return
	}
	f.rtoTimer = eventq.Handle{}
	if f.flight() == 0 || !f.running {
		return
	}
	rto := f.rto << f.rtoBackoff
	if rto > maxRTO {
		rto = maxRTO
	}
	f.rtoTimer = f.sim.After(rto, f.onRTO)
}

func (f *Flow) stopRTOTimer() {
	f.sim.Cancel(f.rtoTimer)
	f.rtoTimer = eventq.Handle{}
}

// onRTO handles a retransmission timeout: multiplicative back-off,
// window collapse, go-back-N from the last cumulative ack.
func (f *Flow) onRTO() {
	f.timeouts++
	mss := float64(mssBytes)
	half := float64(f.flight()) / 2
	if half < 2*mss {
		half = 2 * mss
	}
	f.ssthresh = half
	f.cwnd = mss
	f.inRecovery = false
	f.dupAcks = 0
	// Dup acks for anything below the pre-timeout frontier must not
	// trigger fast retransmit (RFC 6582).
	f.recover = f.highestSent
	f.nextSeq = f.sndUna
	if f.rtoBackoff < 6 {
		f.rtoBackoff++
	}
	// Karn: outstanding samples are invalid after a timeout.
	clear(f.sendTimes)
	f.trySend()
}

// String identifies the flow in diagnostics.
func (f *Flow) String() string {
	return fmt.Sprintf("tcp(%s) una=%d next=%d cwnd=%.0f ssthresh=%.0f", f.name, f.sndUna, f.nextSeq, f.cwnd, f.ssthresh)
}
