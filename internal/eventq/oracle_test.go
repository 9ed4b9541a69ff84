package eventq

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// oracleEntry is one pending event of the reference queue.
type oracleEntry struct {
	at  int64
	seq uint64
	id  int
}

// oracle is the reference queue: a slice kept sorted on (at, seq).
type oracle []oracleEntry

func (o *oracle) insert(x oracleEntry) {
	i := sort.Search(len(*o), func(i int) bool {
		y := (*o)[i]
		return y.at > x.at || (y.at == x.at && y.seq > x.seq)
	})
	*o = append(*o, oracleEntry{})
	copy((*o)[i+1:], (*o)[i:])
	(*o)[i] = x
}

func (o *oracle) remove(id int) bool {
	for i, y := range *o {
		if y.id == id {
			*o = append((*o)[:i], (*o)[i+1:]...)
			return true
		}
	}
	return false
}

// TestQueueMatchesOracle runs seeded random programs of Schedule,
// Reserve, ScheduleReserved (tickets used out of order, old ones at the
// instant of the last pop included), Cancel of live and stale handles,
// PeekTime / PeekTicket and Pop against a sorted slice, and compares
// what every step returns. Times are drawn at several scales — the
// same instant, 1 ns apart, 2^40 to 2^62 apart, negative before the
// first pop, MaxInt64 — so buckets 0 and 64 fill, as do nearly all
// between, and the re-linking path runs at every scale.
func TestQueueMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		oracleProgram(t, seed)
	}
}

func oracleProgram(t *testing.T, seed int64) {
	const steps = 3000
	var (
		q       Queue
		ref     oracle
		rng     = rand.New(rand.NewSource(seed))
		handles []Handle // by event id
		tickets []uint64 // reserved, not yet used
		last    int64    // time of the last pop
		popped  bool
		fired   = -1
	)
	draw := func() int64 {
		if !popped && rng.Intn(3) == 0 {
			return []int64{math.MinInt64, -1 << 40, -1, -rng.Int63n(1 << 40)}[rng.Intn(4)]
		}
		var d int64
		switch rng.Intn(10) {
		case 0, 1, 2:
			d = 0
		case 3:
			d = 1
		case 4:
			d = rng.Int63n(16)
		case 5:
			d = 1 << (40 + rng.Intn(23))
		case 6:
			d = rng.Int63n(1 << 40)
		case 7:
			if rng.Intn(20) == 0 {
				return math.MaxInt64
			}
			fallthrough
		default:
			d = rng.Int63n(1000)
		}
		if d > math.MaxInt64-last {
			return math.MaxInt64
		}
		return last + d
	}
	enqueue := func(step int, at int64, seq uint64, reserved bool) {
		id := len(handles)
		fn := func() { fired = id }
		var h Handle
		if reserved {
			h = q.ScheduleReserved(at, seq, fn)
		} else {
			h = q.Schedule(at, fn)
		}
		handles = append(handles, h)
		ref.insert(oracleEntry{at: at, seq: seq, id: id})
		if got, ok := h.At(); !ok || got != at {
			t.Fatalf("seed %d step %d: new handle reports (%d, %v), want (%d, true)", seed, step, got, ok, at)
		}
	}

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 30:
			enqueue(step, draw(), q.Reserve(0), false)
		case r < 38:
			first := q.Reserve(1 + rng.Intn(5))
			for s := first; s < q.Reserve(0); s++ {
				tickets = append(tickets, s)
			}
		case r < 55:
			if len(tickets) == 0 {
				continue
			}
			i := rng.Intn(len(tickets))
			seq := tickets[i]
			tickets[i] = tickets[len(tickets)-1]
			tickets = tickets[:len(tickets)-1]
			enqueue(step, draw(), seq, true)
		case r < 65:
			if len(handles) == 0 {
				continue
			}
			id := rng.Intn(len(handles))
			want := ref.remove(id)
			if got := q.Cancel(handles[id]); got != want {
				t.Fatalf("seed %d step %d: Cancel of event %d = %v, oracle %v", seed, step, id, got, want)
			}
			if handles[id].Pending() {
				t.Fatalf("seed %d step %d: event %d still pending after Cancel", seed, step, id)
			}
		case r < 75:
			at, ok := q.PeekTime()
			if ok != (len(ref) > 0) || ok && at != ref[0].at {
				t.Fatalf("seed %d step %d: PeekTime = (%d, %v), oracle %+v", seed, step, at, ok, ref[:min(1, len(ref))])
			}
			if ok {
				if seq := q.PeekTicket(); seq != ref[0].seq {
					t.Fatalf("seed %d step %d: PeekTicket = %d, oracle %d (at %d)", seed, step, seq, ref[0].seq, at)
				}
			}
		default:
			if at, ok := popAndCheck(t, seed, step, &q, &ref, &fired); ok {
				last, popped = at, true
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("seed %d step %d: Len = %d, oracle %d", seed, step, q.Len(), len(ref))
		}
	}
	for len(ref) > 0 {
		popAndCheck(t, seed, steps, &q, &ref, &fired)
	}
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatalf("seed %d: the queue is not empty after the oracle drained", seed)
	}
}

// popAndCheck pops one event and checks it is the oracle's first, by
// time and by identity (its callback reports its id). It returns the
// popped time, and ok=false if both queues were empty.
func popAndCheck(t *testing.T, seed int64, step int, q *Queue, ref *oracle, fired *int) (at int64, ok bool) {
	t.Helper()
	e := q.Pop()
	if len(*ref) == 0 {
		if e != nil {
			t.Fatalf("seed %d step %d: Pop on an empty oracle returned an event at %d", seed, step, e.At())
		}
		return 0, false
	}
	want := (*ref)[0]
	*ref = (*ref)[1:]
	if e == nil {
		t.Fatalf("seed %d step %d: Pop returned nil, oracle has event %d at %d", seed, step, want.id, want.at)
	}
	*fired = -1
	e.Fire()
	if e.At() != want.at || *fired != want.id {
		t.Fatalf("seed %d step %d: Pop returned event %d at %d, oracle event %d at %d (ticket %d)", seed, step, *fired, e.At(), want.id, want.at, want.seq)
	}
	q.Recycle(e)
	return want.at, true
}

// TestScheduleBeforeLastPopPanics states the queue's contract: nothing
// may be scheduled before the last popped instant, and the panic says
// so, but an older ticket at that very instant is legal — lanes enqueue
// one whenever an event hands over to the next of its lane — and fires
// before the newer tickets waiting there.
func TestScheduleBeforeLastPopPanics(t *testing.T) {
	var q Queue
	old := q.Reserve(1)
	var order []string
	q.Schedule(10, func() { order = append(order, "popped") })
	q.Schedule(10, func() { order = append(order, "newer") })
	e := q.Pop()
	e.Fire()
	q.Recycle(e)

	q.ScheduleReserved(10, old, func() { order = append(order, "older") })
	for q.Len() > 0 {
		e := q.Pop()
		e.Fire()
		q.Recycle(e)
	}
	if got := strings.Join(order, " "); got != "popped older newer" {
		t.Fatalf("fired %q, want the older ticket before the newer at the popped instant", got)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "before the last popped instant") {
			t.Fatalf("scheduling before the last popped instant: recovered %q, want a panic naming it", msg)
		}
	}()
	q.Schedule(9, func() {})
}

// TestSameInstantDrainFIFO: a same-instant group of 20 000 events
// drains in ticket order, both when it is scheduled at the current
// instant (straight into bucket 0) and at a later one, where the whole
// group is re-linked into bucket 0 at once.
func TestSameInstantDrainFIFO(t *testing.T) {
	const n = 20_000
	for _, tc := range []struct {
		name string
		at   int64
	}{
		{"current instant", 100},
		{"later instant", 100 + 1<<20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue
			q.Schedule(100, func() {})
			e := q.Pop()
			e.Fire()
			q.Recycle(e)
			next := 0
			for i := 0; i < n; i++ {
				q.Schedule(tc.at, func() {
					if i != next {
						t.Fatalf("event %d fired where %d was due", i, next)
					}
					next++
				})
			}
			for q.Len() > 0 {
				e := q.Pop()
				e.Fire()
				q.Recycle(e)
			}
			if next != n {
				t.Fatalf("%d of %d events fired", next, n)
			}
		})
	}
}
