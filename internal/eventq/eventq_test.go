package eventq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestPopOrder checks that events pop in time order regardless of
// scheduling order.
func TestPopOrder(t *testing.T) {
	var q Queue
	times := []int64{50, 10, 30, 20, 40, 10, 0}
	for _, at := range times {
		q.Schedule(at, func() {})
	}
	var got []int64
	for q.Len() > 0 {
		got = append(got, q.Pop().At())
	}
	want := append([]int64(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestTieBreakBySchedulingOrder checks FIFO semantics among same-time
// events — the property that makes simulations deterministic.
func TestTieBreakBySchedulingOrder(t *testing.T) {
	var q Queue
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(42, func() { fired = append(fired, i) })
	}
	for q.Len() > 0 {
		q.Pop().Fire()
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events fired in order %v, want scheduling order", fired)
		}
	}
}

// TestCancel checks that cancelled events neither pop nor fire.
func TestCancel(t *testing.T) {
	var q Queue
	ran := false
	h1 := q.Schedule(1, func() { ran = true })
	q.Schedule(2, func() {})
	if !q.Cancel(h1) {
		t.Fatal("Cancel of pending event reported false")
	}
	if q.Cancel(h1) {
		t.Fatal("second Cancel reported true")
	}
	if h1.Pending() {
		t.Fatal("cancelled event still pending")
	}
	e := q.Pop()
	if e == nil || e.At() != 2 {
		t.Fatalf("popped %v, want the uncancelled event at t=2", e)
	}
	e.Fire()
	if ran {
		t.Fatal("cancelled event callback ran")
	}
}

// TestCancelMiddleKeepsOrder cancels a middle element and verifies heap
// integrity afterwards.
func TestCancelMiddleKeepsOrder(t *testing.T) {
	var q Queue
	var events []Handle
	for i := 0; i < 100; i++ {
		events = append(events, q.Schedule(int64(i%17), func() {}))
	}
	for i := 0; i < len(events); i += 3 {
		q.Cancel(events[i])
	}
	prev := int64(-1)
	for q.Len() > 0 {
		e := q.Pop()
		if e.At() < prev {
			t.Fatalf("heap order violated after cancels: %d after %d", e.At(), prev)
		}
		prev = e.At()
	}
}

// TestPeekTime checks PeekTime against Pop.
func TestPeekTime(t *testing.T) {
	var q Queue
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported ok")
	}
	q.Schedule(7, func() {})
	q.Schedule(3, func() {})
	if at, ok := q.PeekTime(); !ok || at != 3 {
		t.Fatalf("PeekTime = %d,%v, want 3,true", at, ok)
	}
	q.Pop()
	if at, ok := q.PeekTime(); !ok || at != 7 {
		t.Fatalf("PeekTime after pop = %d,%v, want 7,true", at, ok)
	}
}

// TestPopEmpty checks empty-queue and zero-handle behavior.
func TestPopEmpty(t *testing.T) {
	var q Queue
	if q.Pop() != nil {
		t.Fatal("Pop on empty queue returned an event")
	}
	if q.Cancel(Handle{}) {
		t.Fatal("Cancel of the zero Handle reported true")
	}
	if (Handle{}).Pending() {
		t.Fatal("zero Handle reports pending")
	}
}

// TestFireOnce checks that Fire is idempotent.
func TestFireOnce(t *testing.T) {
	var q Queue
	n := 0
	q.Schedule(1, func() { n++ })
	e := q.Pop()
	e.Fire()
	e.Fire()
	if n != 1 {
		t.Fatalf("callback ran %d times, want 1", n)
	}
}

// TestRecycleInvalidatesStaleHandles is the freelist-safety property:
// a handle kept past its event's firing must not cancel (or report
// pending for) the recycled event's next incarnation.
func TestRecycleInvalidatesStaleHandles(t *testing.T) {
	var q Queue
	stale := q.Schedule(1, func() {})
	e := q.Pop()
	e.Fire()
	q.Recycle(e)

	ran := false
	fresh := q.Schedule(2, func() { ran = true })
	if stale.Pending() {
		t.Fatal("stale handle reports pending after its event was recycled")
	}
	if q.Cancel(stale) {
		t.Fatal("stale handle cancelled the recycled event's next incarnation")
	}
	if !fresh.Pending() {
		t.Fatal("fresh handle not pending")
	}
	e2 := q.Pop()
	e2.Fire()
	q.Recycle(e2)
	if !ran {
		t.Fatal("fresh event did not fire")
	}
}

// TestScheduleRecyclesAllocationFree pins the hot-path contract: once
// the freelist is primed, Schedule/Pop/Fire/Recycle allocates nothing.
func TestScheduleRecyclesAllocationFree(t *testing.T) {
	var q Queue
	at := int64(0)
	fn := func() {}
	// Prime the freelist and the heap's backing array.
	for i := 0; i < 64; i++ {
		q.Schedule(at, fn)
	}
	for q.Len() > 0 {
		e := q.Pop()
		e.Fire()
		q.Recycle(e)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at++
		q.Schedule(at, fn)
		e := q.Pop()
		e.Fire()
		q.Recycle(e)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/Pop/Recycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRecyclePendingPanics documents that events still in the heap must
// not be recycled.
func TestRecyclePendingPanics(t *testing.T) {
	var q Queue
	h := q.Schedule(1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("recycling a pending event did not panic")
		}
	}()
	q.Recycle(h.e)
}

// TestQuickSortedDrain is the property test: any multiset of scheduled
// times drains in nondecreasing order, with cancels applied.
func TestQuickSortedDrain(t *testing.T) {
	f := func(times []int64, cancelMask []bool, seed int64) bool {
		var q Queue
		rng := rand.New(rand.NewSource(seed))
		var events []Handle
		for _, at := range times {
			events = append(events, q.Schedule(at%1000, func() {}))
		}
		cancelled := 0
		for i, e := range events {
			if i < len(cancelMask) && cancelMask[i] && rng.Intn(2) == 0 {
				if q.Cancel(e) {
					cancelled++
				}
			}
		}
		if q.Len() != len(events)-cancelled {
			return false
		}
		prev := int64(-1 << 62)
		for q.Len() > 0 {
			e := q.Pop()
			if e.At() < prev {
				return false
			}
			prev = e.At()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkScheduleFire measures the recycled Schedule→Pop→Fire→Recycle
// cycle at standing queue depths: 8, a one-hop shard's few sources, and
// 1024.
func BenchmarkScheduleFire(b *testing.B) {
	for _, depth := range []int{8, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var q Queue
			fn := func() {}
			at := int64(0)
			for i := 0; i < depth; i++ {
				q.Schedule(at+int64(i), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at++
				q.Schedule(at+int64(depth), fn)
				e := q.Pop()
				e.Fire()
				q.Recycle(e)
			}
		})
	}
}

// BenchmarkSameInstantDrain schedules 20 000 events at one instant and
// drains them, per op: at the current instant, and at a later one, from
// which the whole group moves into the current instant at once.
func BenchmarkSameInstantDrain(b *testing.B) {
	const n = 20_000
	for _, tc := range []struct {
		name  string
		ahead int64
	}{
		{"current", 0},
		{"later", 1 << 20},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var q Queue
			fn := func() {}
			at := int64(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				at += tc.ahead
				for j := 0; j < n; j++ {
					q.Schedule(at, fn)
				}
				for q.Len() > 0 {
					e := q.Pop()
					e.Fire()
					q.Recycle(e)
				}
			}
		})
	}
}
