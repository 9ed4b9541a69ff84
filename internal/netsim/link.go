package netsim

import (
	"fmt"
	"math/rand"

	"repro/internal/eventq"
)

// LinkCounters is a snapshot of a link's cumulative activity, used by
// monitors (internal/mrtg) and ground-truth utilization accounting.
type LinkCounters struct {
	PktsIn    uint64 // packets that arrived at the queue
	PktsOut   uint64 // packets fully transmitted
	BytesOut  uint64 // bytes fully transmitted
	Drops     uint64 // packets dropped at a full buffer
	DropBytes uint64
	RandLoss  uint64 // packets erased by the random-loss impairment
	Reordered uint64 // packets delayed by the reordering impairment
	Busy      Time   // cumulative transmission (service) time
}

// A Link is a store-and-forward transmission line with a FIFO drop-tail
// queue. Service is exact: a packet arriving at time t begins
// transmission at max(t, end of previous transmission) and occupies the
// line for 8·Size/Capacity seconds; the packet then arrives at the next
// hop after the propagation delay.
//
// The per-packet event path is allocation-free and costs the event heap
// two entries per link, not two per packet: because service and
// propagation complete in FIFO order per link, the link keeps its
// in-flight packets in two rings, each a lane of the event queue (see
// the package comment). A packet takes its order ticket where it enters
// a ring, only the ring's head is ever enqueued, and the two prebound
// callbacks (no per-packet closures) pop the head and enqueue the next.
//
// A completion is an event only when somebody waits for it: a next hop,
// a sink, an OnTransmit observer. The completion of a dead-end packet
// on an unobserved link changes nothing but this link's own counters,
// queue occupancy and reorder draws, so its record is lazy: it takes
// its ticket at arrival like any other and stays in the ring, but the
// lane skips it, and settle retires it — the bookkeeping txDone would
// have done — the next time anything reads or changes that state, if
// its (done, ticket) precedes the simulator's position in the event
// order by then. What a reader sees is what firing it would have left.
type Link struct {
	sim      *Simulator
	name     string
	capacity int64 // bits per second
	prop     Time
	buf      int // queue limit in bytes; 0 means unbounded

	queued    int // bytes queued or in service
	busyUntil Time

	ctr LinkCounters

	// inService and propagating are FIFO rings of packets being
	// transmitted and in flight to the next hop; the first live record
	// of the one and the head of the other are the link's (at most) two
	// heap entries, fired into txDoneFn and propFn, bound once at
	// NewLink. live counts the in-service records that are not lazy, so
	// the tx lane is armed exactly while it is positive, and txArmed
	// names its heap entry for OnTransmit to move.
	inService   ring[txRec]
	propagating ring[propRec]
	live        int
	txArmed     eventq.Handle
	txDoneFn    func()
	propFn      func()

	onTransmit []func(pkt *Packet, done Time)
	onDrop     []func(pkt *Packet, at Time)

	// impair, when non-nil, applies stochastic loss and reordering to
	// the link's packets; see Impair.
	impair *impairState
}

// An Impairment configures a link's stochastic packet-level failures.
// Loss erases an arriving packet with the given probability before it
// is queued (a wire erasure, distinct from a buffer drop and counted
// separately in RandLoss). Reorder delays a transmitted packet's
// delivery to the next hop by an extra ReorderDelay with the given
// probability, so it arrives behind packets transmitted after it.
// All draws come from a private RNG seeded with Seed, so an impaired
// simulation stays reproducible bit-for-bit.
type Impairment struct {
	Loss         float64 // erase probability in [0, 1)
	Reorder      float64 // delay probability in [0, 1)
	ReorderDelay Time    // extra delivery delay; must be positive when Reorder > 0
	Seed         int64
}

// impairState is a link's live impairment: the configuration plus the
// RNG its per-packet draws consume (in event order, so deterministic).
type impairState struct {
	cfg Impairment
	rng *rand.Rand
}

// Impair installs (or, with a zero Impairment, removes) the link's
// loss/reordering impairment. Reordered packets take a one-off
// scheduled event instead of the allocation-free propagation ring, so
// only impaired traffic pays for the flexibility. Out-of-range
// probabilities panic, like the NewLink parameter checks. Completions
// that precede the call draw under the configuration they completed
// under: the link settles before the new one is installed.
func (l *Link) Impair(cfg Impairment) {
	if cfg.Loss < 0 || cfg.Loss >= 1 || cfg.Reorder < 0 || cfg.Reorder >= 1 {
		panic(fmt.Sprintf("netsim: link %q: impairment probabilities loss=%v reorder=%v outside [0, 1)", l.name, cfg.Loss, cfg.Reorder))
	}
	if cfg.Reorder > 0 && cfg.ReorderDelay <= 0 {
		panic(fmt.Sprintf("netsim: link %q: reordering needs a positive ReorderDelay, got %v", l.name, cfg.ReorderDelay))
	}
	if cfg.ReorderDelay < 0 {
		panic(fmt.Sprintf("netsim: link %q: negative ReorderDelay %v", l.name, cfg.ReorderDelay))
	}
	l.settle()
	if cfg.Loss == 0 && cfg.Reorder == 0 {
		l.impair = nil
		return
	}
	l.impair = &impairState{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// txRec is one packet in service: its transmission time, completion
// instant and order ticket, recorded at arrival so the completion
// callback needs no closure state. A lazy record's completion is not an
// event: settle retires it (see Link).
type txRec struct {
	pkt      *Packet
	tx, done Time
	seq      uint64
}

// propRec is one packet propagating toward the next hop, with its
// arrival instant and order ticket.
type propRec struct {
	pkt *Packet
	at  Time
	seq uint64
}

// NewLink creates a link attached to sim. capacity is in bits per
// second and must be positive; prop is the propagation delay; bufBytes
// limits the queue (queued plus in-service bytes) and 0 disables the
// limit.
func NewLink(sim *Simulator, name string, capacity int64, prop Time, bufBytes int) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: link %q: capacity must be positive, got %d", name, capacity))
	}
	if prop < 0 || bufBytes < 0 {
		panic(fmt.Sprintf("netsim: link %q: negative propagation delay or buffer", name))
	}
	l := &Link{sim: sim, name: name, capacity: capacity, prop: prop, buf: bufBytes}
	l.txDoneFn = l.txDone
	l.propFn = l.propArrive
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link capacity in bits per second.
func (l *Link) Capacity() int64 { return l.capacity }

// PropDelay returns the link's propagation delay.
func (l *Link) PropDelay() Time { return l.prop }

// Buffer returns the drop-tail queue limit in bytes (0 = unbounded).
func (l *Link) Buffer() int { return l.buf }

// QueuedBytes returns the bytes currently queued or in service. It
// settles first, like Counters.
func (l *Link) QueuedBytes() int {
	l.settle()
	return l.queued
}

// Counters returns a snapshot of the link's cumulative counters. It
// settles first — completions the link kept out of the event heap are
// accounted up to the simulator's position in the event order — so it
// is a write to the link and, like everything else on a simulator,
// belongs to the simulator's goroutine.
func (l *Link) Counters() LinkCounters {
	l.settle()
	return l.ctr
}

// OnTransmit registers an observer invoked whenever a packet finishes
// transmission on this link, with the completion time. Monitors use it
// for windowed byte counting. An observed link's completions are all
// events again, one heap entry and one Events() count each, so observe
// a link only to see individual packets: Counters() gives the totals
// for free. Registered mid-run, the observer sees every completion that
// has not happened yet.
func (l *Link) OnTransmit(fn func(pkt *Packet, done Time)) {
	l.settle()
	l.onTransmit = append(l.onTransmit, fn)
	if l.live == l.inService.len() {
		return
	}
	// Lazy records remain, all still to complete: make them events. The
	// lane's entry, if it has one, is for a record behind them.
	l.sim.Cancel(l.txArmed)
	l.live = l.inService.len()
	head := l.inService.peek()
	l.txArmed = l.sim.ScheduleReserved(head.done, head.seq, l.txDoneFn)
}

// OnDrop registers an observer invoked when a packet is dropped at this
// link's full buffer.
func (l *Link) OnDrop(fn func(pkt *Packet, at Time)) { l.onDrop = append(l.onDrop, fn) }

// TxTime returns the transmission (serialization) time of size bytes on
// this link.
func (l *Link) TxTime(size int) Time {
	// 8 * size bits at capacity bits/s, in nanoseconds. Computed in
	// integer arithmetic to stay deterministic: ns = bits * 1e9 / cap.
	bits := int64(size) * 8
	return Time(bits * int64(Second) / l.capacity)
}

// Utilization returns the mean utilization over a window given the
// counter snapshots at the window's boundaries.
func Utilization(before, after LinkCounters, window Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(after.Busy-before.Busy) / float64(window)
}

// arrive handles a packet reaching this link's input queue.
func (l *Link) arrive(pkt *Packet, at Time) {
	l.settle()
	l.ctr.PktsIn++
	if imp := l.impair; imp != nil && imp.cfg.Loss > 0 && imp.rng.Float64() < imp.cfg.Loss {
		// Wire erasure: the packet vanishes before this hop's queue.
		// Like a buffer drop the sink is never invoked, so a pooled
		// packet goes back to the freelist whoever was waiting for it;
		// the loss is counted separately and drop observers stay
		// buffer-only.
		l.ctr.RandLoss++
		l.sim.FreePacket(pkt)
		return
	}
	if l.buf > 0 && l.queued+pkt.Size > l.buf {
		l.ctr.Drops++
		l.ctr.DropBytes += uint64(pkt.Size)
		for _, fn := range l.onDrop {
			fn(pkt, at)
		}
		l.sim.FreePacket(pkt)
		return
	}
	l.queued += pkt.Size
	start := at
	if l.busyUntil > start {
		start = l.busyUntil
	}
	tx := l.TxTime(pkt.Size)
	done := start + tx
	l.busyUntil = done
	// The ticket is taken whether or not an event will use it, so every
	// other event keeps the ticket it would have had.
	seq := l.sim.Reserve(1)
	l.inService.push(txRec{pkt: pkt, tx: tx, done: done, seq: seq})
	if l.lazy(pkt) {
		return
	}
	if l.live++; l.live == 1 {
		l.txArmed = l.sim.ScheduleReserved(done, seq, l.txDoneFn)
	}
}

// lazy reports whether pkt's completion on this link is not an event:
// nobody waits for it.
func (l *Link) lazy(pkt *Packet) bool { return len(l.onTransmit) == 0 && pkt.deadEnd() }

// settle retires the lazy records at the ring head whose completion
// precedes the simulator's position in the event order: exactly those
// whose events, had they been in the heap, would have fired by now.
// Every path that reads or changes what a completion changes — arrive,
// txDone, Counters, QueuedBytes, Impair, OnTransmit — settles first, so
// completions keep their order relative to every loss draw and buffer
// check on this link, and no other state depends on them.
func (l *Link) settle() {
	for l.inService.len() > l.live {
		rec := l.inService.peek()
		if !l.lazy(rec.pkt) || !l.sim.passed(rec.done, rec.seq) {
			return
		}
		l.complete(rec)
		l.sim.FreePacket(l.inService.pop().pkt)
	}
}

// complete accounts a finished transmission — queue occupancy,
// counters, observers, the reorder draw — and reports the draw. It is
// all a completion does to the link, shared by the event (txDone) and
// the lazy path (settle).
func (l *Link) complete(rec *txRec) (reorder bool) {
	pkt := rec.pkt
	l.queued -= pkt.Size
	l.ctr.PktsOut++
	l.ctr.BytesOut += uint64(pkt.Size)
	l.ctr.Busy += rec.tx
	for _, fn := range l.onTransmit {
		fn(pkt, rec.done)
	}
	// The reorder draw is taken for every transmitted packet, dead end
	// or not, so the link's RNG stream and its Reordered counter do not
	// depend on who observes the delivery.
	if imp := l.impair; imp != nil && imp.cfg.Reorder > 0 && imp.rng.Float64() < imp.cfg.Reorder {
		reorder = true
		l.ctr.Reordered++
	}
	return reorder
}

// txDone completes the first live record of the in-service ring, the
// one whose event is firing. Completions are FIFO because busyUntil
// never decreases, so every record ahead of it is lazy and has passed:
// settling brings it to the head. The next live record is enqueued
// before anything else runs, so an arrival this completion causes finds
// the lane armed; the lazy records skipped on the way to it are looked
// at once more, by the settle that retires them.
func (l *Link) txDone() {
	l.settle()
	rec := l.inService.pop()
	if l.live--; l.live > 0 {
		i := 0
		for l.lazy(l.inService.at(i).pkt) {
			i++
		}
		next := l.inService.at(i)
		l.txArmed = l.sim.ScheduleReserved(next.done, next.seq, l.txDoneFn)
	}
	pkt := rec.pkt
	reorder := l.complete(&rec)
	if pkt.deadEnd() {
		// Nobody observes the delivery, so the packet leaves the network
		// here instead of propagating to a nil sink. Only an observed
		// link fires this event for one: unobserved, settle got here.
		l.sim.FreePacket(pkt)
		return
	}
	if reorder {
		// Reordered delivery: this packet bypasses the FIFO propagation
		// ring (whose invariant is constant per-link latency) and takes
		// its own event at prop + ReorderDelay, arriving behind packets
		// transmitted after it. The closure allocation and the heap
		// entry are confined to impaired packets, keeping the unimpaired
		// hot path alloc-free.
		at := rec.done + l.prop + l.impair.cfg.ReorderDelay
		l.sim.Schedule(at, func() { pkt.forward(l.sim, at) })
		return
	}
	if l.prop == 0 {
		pkt.forward(l.sim, rec.done)
		return
	}
	seq := l.sim.Reserve(1)
	l.propagating.push(propRec{pkt: pkt, at: rec.done + l.prop, seq: seq})
	if l.propagating.len() == 1 {
		l.sim.ScheduleReserved(rec.done+l.prop, seq, l.propFn)
	}
}

// propArrive delivers the head of the propagation ring to the next hop,
// after enqueuing the ring's next head. Arrivals are FIFO because
// completion times are nondecreasing and the propagation delay is
// constant per link.
func (l *Link) propArrive() {
	rec := l.propagating.pop()
	if l.propagating.len() > 0 {
		next := l.propagating.peek()
		l.sim.ScheduleReserved(next.at, next.seq, l.propFn)
	}
	rec.pkt.forward(l.sim, rec.at)
}

// ring is a FIFO queue on circular power-of-two storage that doubles
// when full: it holds the peak backlog and nothing more, so steady
// state allocates nothing.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int // elements held
}

func (r *ring[T]) len() int { return r.n }

// peek returns the oldest element in place; the ring must not be empty.
func (r *ring[T]) peek() *T { return &r.buf[r.head] }

// at returns the i-th oldest element in place, 0 ≤ i < len.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// push appends v, doubling the storage first when it is full.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(4, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
