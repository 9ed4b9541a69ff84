// Package eventq provides a cancellable priority queue of timed events,
// the scheduling substrate for the discrete-event network simulator.
//
// Events are ordered by activation time; ties are broken by scheduling
// order, so the queue is deterministic: two runs that schedule the same
// events in the same order execute them identically.
//
// Time only moves forward: nothing may be scheduled before the instant
// of the last popped event (Schedule panics), though an event may still
// join that instant, under any order ticket. The queue is a monotone
// radix heap built on that. A pending event sits in bucket
// b = bits.Len64(time ^ base), where the base is the last popped time,
// so every event in a bucket precedes every event in a higher one.
// Bucket 0, the base instant itself, is a small binary heap on the
// ticket, so a same-instant group of any size drains in ticket order at
// O(log n) per event. Buckets 1–64 are intrusive singly-linked lists
// through Event, each with its earliest (time, ticket) at its head, and
// a 64-bit occupancy mask finds the lowest non-empty one with one
// TrailingZeros64: the earliest pending event is bucket 0's least
// ticket or that list's head, found without a walk. When bucket 0 is
// empty, Pop takes that head, moves the base to its time and re-links
// the rest of its bucket into lower buckets. An event moves down at
// most 64 times in its life, so a pop costs no sift through the pending
// entries.
//
// The queue is built for the simulator's per-packet hot path: fired and
// cancelled events are recycled through a freelist linked through the
// same field as the buckets, so steady-state Schedule allocates nothing.
//
// The queue is also kept short. A FIFO producer (a link's transmission
// stage, a periodic probe stream) has many events outstanding but only
// its oldest can be the next to fire, so it is a lane: it takes an
// order ticket per event where it would have called Schedule (Reserve)
// and enqueues each one under its ticket (ScheduleReserved) only when
// the one before it has fired. The firing order is unchanged, because
//
//  1. order is (time, ticket) and nothing else, and tickets are taken
//     at the same points in the same sequence as Schedule would;
//  2. a lane's events have non-decreasing times and increasing tickets,
//     so none of them precedes the lane's head;
//  3. the earliest event overall is therefore a plain event or some
//     lane's head — both in the queue — and Pop returns the same event
//     either way.
//
// TestLaneOrderEquivalence holds this as a property, and
// TestQueueMatchesOracle holds the queue against a sorted slice.
package eventq

import (
	"fmt"
	"math/bits"
)

// An Event is a callback scheduled at a point in simulated time. Event
// structs are owned by their Queue and recycled after they fire or are
// cancelled; external code holds Handles, never *Events.
type Event struct {
	// at and next lead: the first 16 bytes of every slot of the 48-byte
	// size class lie in one cache line, so a bucket walk reads one line
	// per event.
	at     int64
	next   *Event // the next event in its list bucket, or on the freelist
	bucket int32  // 0–64 while queued; -1 once popped or cancelled
	index  int32  // heap index while in bucket 0
	seq    uint64
	fn     func()
	gen    uint32 // bumped on recycle, invalidating stale Handles
}

// At returns the simulated time at which the event fires.
func (e *Event) At() int64 { return e.at }

// Fire runs the event's callback. It is a no-op on cancelled events.
func (e *Event) Fire() {
	if e.fn != nil {
		fn := e.fn
		e.fn = nil
		fn()
	}
}

// before orders events by (at, seq): activation time, scheduling order.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// A Handle names a scheduled event. It is a value, safe to copy and to
// keep after the event fired: a stale handle (its event fired, was
// cancelled, or was recycled for a later event) simply reports not
// pending and cancels as a no-op. The zero Handle is valid and never
// pending.
type Handle struct {
	e   *Event
	gen uint32
}

// Pending reports whether the handle's event is still queued (not yet
// fired or cancelled).
func (h Handle) Pending() bool { return h.e != nil && h.e.gen == h.gen && h.e.bucket >= 0 }

// At returns the simulated time at which the event fires, and ok=false
// if the handle is stale (the event already fired or was cancelled).
func (h Handle) At() (at int64, ok bool) {
	if !h.Pending() {
		return 0, false
	}
	return h.e.at, true
}

// key maps a time to an unsigned key of the same order, so that the
// zero Queue's base, key 0, precedes every time.
func key(at int64) uint64 { return uint64(at) ^ 1<<63 }

// A Queue is a time-ordered event queue. The zero value is ready to use.
// Queue is not safe for concurrent use; the simulator is single-threaded
// by design so that runs are reproducible.
type Queue struct {
	base uint64 // key of the last popped time; no pending key is below it
	mask uint64 // bit b-1 set iff list bucket b is non-empty
	n    int
	seq  uint64
	free *Event
	now  []*Event   // bucket 0: events at the base, a binary heap on seq
	list [64]*Event // list[b-1] heads list bucket b
}

// Len returns the number of queued entries: pending events, where a
// lane (see Reserve) counts as one however many of its tickets are
// still to be enqueued. Zero still means nothing is left to fire.
func (q *Queue) Len() int { return q.n }

// Schedule enqueues fn to run at time at and returns a handle that can
// be used to cancel it. at must not precede the time of the last popped
// event: time only moves forward (see the package comment), and
// Schedule panics otherwise. Steady state, Schedule is allocation-free:
// it reuses events recycled by Recycle and Cancel.
func (q *Queue) Schedule(at int64, fn func()) Handle {
	return q.ScheduleReserved(at, q.Reserve(1), fn)
}

// Reserve takes the next n scheduling-order numbers and returns the
// first: the caller may enqueue one event under each of them later,
// with ScheduleReserved, and it fires exactly where a Schedule made now
// would have put it. Lanes (see the package comment) are built on this.
func (q *Queue) Reserve(n int) uint64 {
	seq := q.seq
	q.seq += uint64(n)
	return seq
}

// ScheduleReserved is Schedule under an order number taken earlier with
// Reserve. Each reserved number may be used at most once. A number
// older than events already popped is legal at the last popped time:
// the event joins that instant in its order.
func (q *Queue) ScheduleReserved(at int64, seq uint64, fn func()) Handle {
	if key(at) < q.base {
		panic(fmt.Sprintf("eventq: scheduling at %d, before the last popped instant %d", at, int64(q.base^1<<63)))
	}
	e := q.free
	if e != nil {
		q.free = e.next
	} else {
		e = &Event{}
	}
	e.at, e.seq, e.fn = at, seq, fn
	q.push(e)
	q.n++
	return Handle{e: e, gen: e.gen}
}

// push files e in the bucket its time falls in under the current base.
// A list bucket keeps its earliest event at its head: e goes in front
// if it precedes the head, and right behind it otherwise.
func (q *Queue) push(e *Event) {
	b := bits.Len64(key(e.at) ^ q.base)
	e.bucket = int32(b)
	if b == 0 {
		q.now = append(q.now, e)
		q.up(len(q.now) - 1)
		return
	}
	h := q.list[b-1]
	if h == nil || e.before(h) {
		e.next = h
		q.list[b-1] = e
		q.mask |= 1 << (b - 1)
		return
	}
	e.next = h.next
	h.next = e
}

// Cancel removes the handle's event from the queue and recycles it. It
// returns true if the event was pending and is now cancelled, and false
// if it had already fired, been cancelled, or the handle is zero.
func (q *Queue) Cancel(h Handle) bool {
	if !h.Pending() {
		return false
	}
	e := h.e
	if e.bucket == 0 {
		q.remove(int(e.index))
	} else {
		q.unlink(e)
	}
	q.n--
	q.Recycle(e)
	return true
}

// unlink takes e out of its list bucket, walking the bucket to find it.
// A bucket that loses its head is filed again, so that the earliest of
// the rest becomes the head.
func (q *Queue) unlink(e *Event) {
	b := e.bucket - 1
	e.bucket = -1
	if h := q.list[b]; h != e {
		for h.next != e {
			h = h.next
		}
		h.next = e.next
		return
	}
	q.list[b] = nil
	q.mask &^= 1 << b
	q.refile(e.next)
}

// refile pushes every event of the chain that starts at e.
func (q *Queue) refile(e *Event) {
	for e != nil {
		next := e.next
		q.push(e)
		e = next
	}
}

// head returns the earliest pending event without dequeuing it, or nil:
// bucket 0's least ticket, or else the head of the lowest list bucket.
func (q *Queue) head() *Event {
	if len(q.now) > 0 {
		return q.now[0]
	}
	if q.mask == 0 {
		return nil
	}
	return q.list[bits.TrailingZeros64(q.mask)]
}

// PeekTime returns the activation time of the earliest pending event.
// ok is false if the queue is empty.
func (q *Queue) PeekTime() (at int64, ok bool) {
	if e := q.head(); e != nil {
		return e.at, true
	}
	return 0, false
}

// PeekTicket returns the order ticket of the earliest pending event,
// the other half of its (time, ticket) key. The queue must not be empty.
func (q *Queue) PeekTicket() uint64 { return q.head().seq }

// Pop removes and returns the earliest pending event. The caller is
// responsible for invoking its callback via Fire and then returning the
// event to the queue with Recycle. Pop returns nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	if len(q.now) > 0 {
		e := q.now[0]
		q.remove(0)
		q.n--
		return e
	}
	if q.mask == 0 {
		return nil
	}
	// Move the base to the time of the lowest list bucket's head, m.
	// Every other event of that bucket shares its bits above the
	// bucket's with m, so under the new base each lands in a lower
	// bucket, and those at m's time in bucket 0.
	b := bits.TrailingZeros64(q.mask)
	m := q.list[b]
	q.list[b] = nil
	q.mask &^= 1 << b
	q.base = key(m.at)
	q.refile(m.next)
	m.bucket = -1
	q.n--
	return m
}

// Recycle returns a popped event to the freelist after its callback
// ran. The event must be out of the queue (popped, not merely peeked);
// recycling bumps its generation, so stale Handles can never cancel the
// event's next incarnation.
func (q *Queue) Recycle(e *Event) {
	if e.bucket >= 0 {
		panic("eventq: recycling an event still in the queue")
	}
	e.gen++
	e.fn = nil
	e.next = q.free
	q.free = e
}

// remove takes the event at index i out of bucket 0's heap.
func (q *Queue) remove(i int) {
	n := len(q.now) - 1
	q.now[i].bucket = -1
	last := q.now[n]
	q.now[n] = nil
	q.now = q.now[:n]
	if i < n {
		q.now[i] = last
		last.index = int32(i)
		q.down(i)
		q.up(int(last.index))
	}
}

// up sifts bucket 0's entry at index i toward the root.
func (q *Queue) up(i int) {
	e := q.now[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q.now[parent]
		if p.seq < e.seq {
			break
		}
		q.now[i] = p
		p.index = int32(i)
		i = parent
	}
	q.now[i] = e
	e.index = int32(i)
}

// down sifts bucket 0's entry at index i toward the leaves.
func (q *Queue) down(i int) {
	e := q.now[i]
	n := len(q.now)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.now[c+1].seq < q.now[c].seq {
			c++
		}
		m := q.now[c]
		if e.seq < m.seq {
			break
		}
		q.now[i] = m
		m.index = int32(i)
		i = c
	}
	q.now[i] = e
	e.index = int32(i)
}
