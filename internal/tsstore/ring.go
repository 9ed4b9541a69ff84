package tsstore

// A ring is a fixed-capacity FIFO of the most recent values pushed,
// with a count of everything ever pushed. It is the retention rule of
// every series in the store — per-path points, per-link windows, and a
// federation's merged window.
type ring[T any] struct {
	buf   []T    // storage, len == capacity
	head  int    // index of the oldest retained value
	n     int    // retained count, <= len(buf)
	total uint64 // values ever pushed (retained + evicted)
}

// insert retains v, evicting the oldest value when full, without
// counting it: recovery uses it for records whose contribution to total
// arrives from a checkpoint instead.
func (r *ring[T]) insert(v T) {
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

// snapshot copies the retained values, oldest first.
func (r *ring[T]) snapshot() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}
