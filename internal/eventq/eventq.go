// Package eventq provides a cancellable priority queue of timed events,
// the scheduling substrate for the discrete-event network simulator.
//
// Events are ordered by activation time; ties are broken by scheduling
// order, so the queue is deterministic: two runs that schedule the same
// events in the same order execute them identically.
//
// The queue is built for the simulator's per-packet hot path: fired and
// cancelled events are recycled through a freelist, so steady-state
// Schedule allocates nothing, and the heap is a flat quaternary heap
// (no container/heap interface dispatch, half the levels of a binary
// heap) whose slots carry the (time, order) key beside the event
// pointer, so sifting — where a discrete-event core spends most of its
// time — compares without dereferencing events.
//
// The heap is also kept short. A FIFO producer (a link's transmission
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
//     lane's head — both in the heap — and Pop returns the same event
//     either way.
//
// TestLaneOrderEquivalence holds this as a property.
package eventq

// An Event is a callback scheduled at a point in simulated time. Event
// structs are owned by their Queue and recycled after they fire or are
// cancelled; external code holds Handles, never *Events. The ordering
// key lives in the event's heap slot, not here.
type Event struct {
	at    int64
	fn    func()
	index int    // heap index; -1 once popped or cancelled
	gen   uint32 // bumped on recycle, invalidating stale Handles
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
func (h Handle) Pending() bool { return h.e != nil && h.e.gen == h.gen && h.e.index >= 0 }

// At returns the simulated time at which the event fires, and ok=false
// if the handle is stale (the event already fired or was cancelled).
func (h Handle) At() (at int64, ok bool) {
	if !h.Pending() {
		return 0, false
	}
	return h.e.at, true
}

// A slot is one heap entry: the event's ordering key beside its
// pointer, so sifting compares keys without dereferencing events.
type slot struct {
	at  int64
	seq uint64
	e   *Event
}

// before orders slots by (at, seq): activation time, scheduling order.
func (a slot) before(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// A Queue is a time-ordered event queue. The zero value is ready to use.
// Queue is not safe for concurrent use; the simulator is single-threaded
// by design so that runs are reproducible.
type Queue struct {
	h    []slot
	seq  uint64
	free []*Event
}

// Len returns the number of heap entries: pending events, where a lane
// (see Reserve) counts as one however many of its tickets are still to
// be enqueued. Zero still means nothing is left to fire.
func (q *Queue) Len() int { return len(q.h) }

// Schedule enqueues fn to run at time at and returns a handle that can
// be used to cancel it. Scheduling in the past is allowed (the event
// simply becomes the next to fire); the simulator guards against
// time travel separately. Steady state, Schedule is allocation-free:
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
// Reserve. Each reserved number may be used at most once.
func (q *Queue) ScheduleReserved(at int64, seq uint64, fn func()) Handle {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &Event{}
	}
	e.at, e.fn = at, fn
	q.h = append(q.h, slot{at: at, seq: seq, e: e})
	q.up(len(q.h) - 1)
	return Handle{e: e, gen: e.gen}
}

// Cancel removes the handle's event from the queue and recycles it. It
// returns true if the event was pending and is now cancelled, and false
// if it had already fired, been cancelled, or the handle is zero.
func (q *Queue) Cancel(h Handle) bool {
	if !h.Pending() {
		return false
	}
	q.remove(h.e.index)
	q.Recycle(h.e)
	return true
}

// PeekTime returns the activation time of the earliest pending event.
// ok is false if the queue is empty.
func (q *Queue) PeekTime() (at int64, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// PeekTicket returns the order ticket of the earliest pending event,
// the other half of its (time, ticket) key. The queue must not be empty.
func (q *Queue) PeekTicket() uint64 { return q.h[0].seq }

// Pop removes and returns the earliest pending event. The caller is
// responsible for invoking its callback via Fire and then returning the
// event to the queue with Recycle. Pop returns nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	e := q.h[0].e
	q.remove(0)
	return e
}

// Recycle returns a popped event to the freelist after its callback
// ran. The event must be out of the heap (popped, not merely peeked);
// recycling bumps its generation, so stale Handles can never cancel the
// event's next incarnation.
func (q *Queue) Recycle(e *Event) {
	if e.index >= 0 {
		panic("eventq: recycling an event still in the queue")
	}
	e.gen++
	e.fn = nil
	q.free = append(q.free, e)
}

// remove takes the event at heap index i out of the heap, leaving its
// index at -1.
func (q *Queue) remove(i int) {
	n := len(q.h) - 1
	q.h[i].e.index = -1
	last := q.h[n]
	q.h[n] = slot{}
	q.h = q.h[:n]
	if i < n {
		q.h[i] = last
		q.down(i)
		q.up(i)
	}
}

// up sifts the slot at index i toward the root of the 4-ary heap.
func (q *Queue) up(i int) {
	s := q.h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := q.h[parent]
		if p.before(s) {
			break
		}
		q.h[i] = p
		p.e.index = i
		i = parent
	}
	q.h[i] = s
	s.e.index = i
}

// down sifts the slot at index i toward the leaves of the 4-ary heap.
func (q *Queue) down(i int) {
	s := q.h[i]
	n := len(q.h)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		least := first
		for c, last := first+1, min(first+4, n); c < last; c++ {
			if q.h[c].before(q.h[least]) {
				least = c
			}
		}
		m := q.h[least]
		if s.before(m) {
			break
		}
		q.h[i] = m
		m.e.index = i
		i = least
	}
	q.h[i] = s
	s.e.index = i
}
