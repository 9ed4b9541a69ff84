package tsstore

// A ring is a FIFO of the limit most recent values pushed, with a count
// of everything ever pushed. It is the retention rule of every series
// in the store — per-path points, per-link windows, and a federation's
// merged window.
//
// Storage follows the contents: it starts empty, grows geometrically
// (first to ringFirstChunk values, then doubling) until it holds limit
// values, and only then wraps, so a series pays for the history it has
// rather than the history it may one day retain.
type ring[T any] struct {
	limit int    // most values retained
	buf   []T    // storage, len <= limit
	head  int    // index of the oldest retained value; 0 until buf reaches limit
	n     int    // retained count, <= len(buf)
	total uint64 // values ever pushed (retained + evicted)
}

// ringFirstChunk is the storage a ring's first value allocates, if its
// limit allows as much: enough that a store recovered into small rings
// allocates each of them once, as a fixed-size ring would.
const ringFirstChunk = 64

// insert retains v, evicting the oldest value when full, without
// counting it: recovery uses it for records whose contribution to total
// arrives from a checkpoint instead.
func (r *ring[T]) insert(v T) {
	if r.n == len(r.buf) && r.n < r.limit {
		// Never wrapped, so the retained values are buf[:n] in order.
		grown := make([]T, min(r.limit, max(ringFirstChunk, 2*len(r.buf))))
		copy(grown, r.buf)
		r.buf = grown
	}
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
	} else {
		r.buf[r.head] = v
		r.head = (r.head + 1) % len(r.buf)
	}
}

// push retains v and counts it.
func (r *ring[T]) push(v T) {
	r.insert(v)
	r.total++
}

// at returns the i-th retained value, oldest first.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

// last returns the newest retained value; ok is false for an empty ring.
func (r *ring[T]) last() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	return r.at(r.n - 1), true
}

// segments returns the retained values in place, oldest first, as the
// two runs a wrapped ring stores them in (b is empty until the ring
// wraps). Both alias the ring's storage, so they are only good for as
// long as the caller keeps writers out.
func (r *ring[T]) segments() (a, b []T) {
	if end := r.head + r.n; end > len(r.buf) {
		return r.buf[r.head:], r.buf[:end-len(r.buf)]
	}
	return r.buf[r.head : r.head+r.n], nil
}

// snapshot copies the retained values, oldest first.
func (r *ring[T]) snapshot() []T {
	a, b := r.segments()
	return append(append(make([]T, 0, r.n), a...), b...)
}
