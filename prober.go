package pathload

import "time"

// A StreamSpec tells a prober to emit one periodic stream: K packets of
// L bytes, one every T, a constant-rate stream of R = 8·L/T bits/s.
type StreamSpec struct {
	Rate  float64       // requested rate, bits/s
	K     int           // packets in the stream
	L     int           // wire size of each packet, bytes
	T     time.Duration // packet interspacing
	Fleet int           // fleet index, for logging and wire protocol
	Index int           // stream index within the fleet
}

// Duration returns the stream duration τ = K·T.
func (s StreamSpec) Duration() time.Duration { return time.Duration(s.K) * s.T }

// EffectiveRate returns the rate actually generated, 8·L/T, which can
// differ from Rate by packet-size rounding.
func (s StreamSpec) EffectiveRate() float64 {
	if s.T <= 0 {
		return 0
	}
	return float64(s.L) * 8 / s.T.Seconds()
}

// An OWDSample is the relative one-way delay of one received probe
// packet. Relative means "up to an unknown constant clock offset":
// trend detection uses only OWD differences, so unsynchronized sender
// and receiver clocks are harmless (§IV "Clock and Timing Issues").
type OWDSample struct {
	Seq int           // packet sequence number within the stream, 0-based
	OWD time.Duration // receive timestamp − sender timestamp
}

// A StreamResult reports what the receiver saw of one stream. Lost
// packets are simply absent from OWDs, which must be sorted by Seq.
// OWDs may alias a buffer the prober reuses: it is valid until the next
// SendStream on that prober, so a caller that keeps it longer copies it.
type StreamResult struct {
	Sent int         // packets actually emitted by the sender
	OWDs []OWDSample // received packets in sequence order
	// Flagged marks a stream the sender could not pace correctly
	// (e.g. a context switch stretched an interspacing); flagged
	// streams are discarded rather than classified.
	Flagged bool
}

// LossRate returns the fraction of sent packets that never arrived.
func (r StreamResult) LossRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return 1 - float64(len(r.OWDs))/float64(r.Sent)
}

// A Prober emits probing streams on some transport and reports per-
// packet one-way delays. Implementations must be driven from a single
// goroutine.
//
// SendStream blocks until the stream has been emitted and the receiver
// has collected its packets (or given up on the missing ones). The
// result's OWDs is valid until the next SendStream on that prober.
// Idle lets the path drain between streams; a simulator advances
// virtual time, a real prober sleeps. RTT estimates the path round-trip
// time, used to size inter-stream gaps.
type Prober interface {
	SendStream(spec StreamSpec) (StreamResult, error)
	Idle(d time.Duration) error
	RTT() time.Duration
}
