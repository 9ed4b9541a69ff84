package pathload

import (
	"slices"
	"time"
)

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

// DispersionRate is (lastSeq−firstSeq)·L·8 over (lastSeq−firstSeq)·T +
// (OWD_last − OWD_first): the bits between the first and last arrival
// over their sent span plus the path's dispersion, loss-robust because
// it spans sequence numbers. It is false for < 2 arrivals or span ≤ 0.
func (r StreamResult) DispersionRate(spec StreamSpec) (float64, bool) {
	if len(r.OWDs) < 2 {
		return 0, false
	}
	first, last := r.OWDs[0], r.OWDs[len(r.OWDs)-1]
	span := time.Duration(last.Seq-first.Seq)*spec.T + (last.OWD - first.OWD)
	if span <= 0 {
		return 0, false
	}
	bits := float64(last.Seq-first.Seq) * float64(spec.L) * 8
	return bits / span.Seconds(), true
}

// A StreamCollector is StreamResult's receive rule: one sample per
// sequence number in [0, K), first arrival wins, read out in sequence
// order. Occupancy is a flag beside the delay, never its sign (a fast
// sender clock makes OWDs negative), so a Put writes one cache line and
// no small flag array shares one with another goroutine's collector.
// The slots are reused, regrown only when K grows; zero value is closed.
type StreamCollector struct {
	slot []struct {
		owd time.Duration
		in  bool // owd holds an arrival
	} // by sequence number
	got int // slots filled
}

// Open readies the collector for a stream of k packets.
func (c *StreamCollector) Open(k int) {
	c.slot, c.got = slices.Grow(c.slot[:0], k)[:k], 0
	clear(c.slot)
}

// Put keeps the delay of packet seq if seq < k and its slot is empty,
// and reports whether that filled the k-th slot.
func (c *StreamCollector) Put(seq uint64, owd time.Duration) (full bool) {
	if seq >= uint64(len(c.slot)) || c.slot[seq].in {
		return false
	}
	c.slot[seq].owd, c.slot[seq].in = owd, true
	c.got++
	return c.got == len(c.slot)
}

// Len reports how many samples are in, until the next Open.
func (c *StreamCollector) Len() int { return c.got }

// Drain appends the samples to dst in sequence order, offset added to
// each delay, and closes the collector: no Put matches until the next
// Open. It grows dst to room for k, so a dst kept across streams of one
// K stops allocating.
func (c *StreamCollector) Drain(dst []OWDSample, offset time.Duration) []OWDSample {
	dst = slices.Grow(dst, len(c.slot))
	for seq, s := range c.slot {
		if s.in {
			dst = append(dst, OWDSample{Seq: seq, OWD: s.owd + offset})
		}
	}
	c.slot = c.slot[:0]
	return dst
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
