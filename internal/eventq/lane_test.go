package eventq

import (
	"fmt"
	"math/rand"
	"testing"
)

// fired is one entry of a firing transcript: when, and which event of
// the program (numbered in creation order).
type fired struct {
	at int64
	id int
}

// laneProgram runs a seeded random program of plain schedules, cancels
// and FIFO lanes, and returns its firing transcript. Every fired event
// draws its follow-up actions from the one RNG, so the program itself
// is a function of the firing order: two runs agree on the transcript
// only if they agree on every pop.
//
// With tickets false every lane record is a Schedule call made where the
// record is created — one heap entry per record, the reference. With
// tickets true a record takes its order number there (Reserve) and waits
// in its lane's slice; only the lane's head is in the heap, and firing
// it enqueues the next under its own number.
func laneProgram(seed int64, tickets bool) (transcript []fired, peak int) {
	const (
		lanes     = 5
		maxEvents = 4000
	)
	type rec struct {
		at  int64
		seq uint64
		id  int
	}
	var (
		q       Queue
		rng     = rand.New(rand.NewSource(seed))
		now     int64
		created int
		plain   []Handle
		lane    [lanes][]rec
		laneAt  [lanes]int64 // a lane's times never decrease
		act     func(id int)
	)
	// Small steps with many zeros: heavy ties on at, between a lane and
	// plain events and between lanes.
	step := func() int64 { return []int64{0, 0, 0, 1, 1, 3}[rng.Intn(6)] }

	var fireLane [lanes]func()
	for j := range fireLane {
		j := j
		fireLane[j] = func() {
			head := lane[j][0]
			lane[j] = lane[j][1:]
			if len(lane[j]) > 0 {
				q.ScheduleReserved(lane[j][0].at, lane[j][0].seq, fireLane[j])
			}
			act(head.id)
		}
	}
	// push appends n records to lane j, dt apart: a link stage pushes one
	// at a time (n = 1), a probe stream reserves its whole run at once.
	push := func(j, n int, dt int64) {
		laneAt[j] = max(laneAt[j], now)
		seq := uint64(0)
		if tickets {
			seq = q.Reserve(n)
		}
		for i := 0; i < n; i++ {
			laneAt[j] += dt
			id, at := created, laneAt[j]
			created++
			if !tickets {
				q.Schedule(at, func() { act(id) })
				continue
			}
			lane[j] = append(lane[j], rec{at: at, seq: seq + uint64(i), id: id})
			if len(lane[j]) == 1 {
				q.ScheduleReserved(at, seq, fireLane[j])
			}
		}
	}
	act = func(id int) {
		transcript = append(transcript, fired{at: now, id: id})
		if created >= maxEvents {
			return
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			switch r := rng.Intn(10); {
			case r < 4:
				id := created
				created++
				plain = append(plain, q.Schedule(now+step(), func() { act(id) }))
			case r < 8:
				push(rng.Intn(lanes), 1, step())
			case r < 9:
				push(rng.Intn(lanes), 2+rng.Intn(6), step())
			case len(plain) > 0:
				q.Cancel(plain[rng.Intn(len(plain))]) // often stale: a no-op in both runs
			}
		}
	}

	for i := 0; i < 8; i++ {
		id := created
		created++
		q.Schedule(int64(i%2), func() { act(id) })
	}
	for q.Len() > 0 {
		peak = max(peak, q.Len())
		at, _ := q.PeekTime()
		e := q.Pop()
		now = at
		e.Fire()
		q.Recycle(e)
	}
	return transcript, peak
}

// TestLaneOrderEquivalence is the property the simulator's lanes rest
// on: keeping only each FIFO lane's head in the heap, under the order
// number its record took when it was created, fires exactly the
// sequence that scheduling every record at creation does.
func TestLaneOrderEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want, wantPeak := laneProgram(seed, false)
		got, gotPeak := laneProgram(seed, true)
		if len(want) < 1000 {
			t.Fatalf("seed %d: the program fired only %d events; it tests nothing", seed, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events fired through lanes, %d through Schedule", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v through lanes, %+v through Schedule", seed, i, got[i], want[i])
			}
		}
		if gotPeak > wantPeak {
			t.Errorf("seed %d: heap peaked at %d entries with lanes, %d without", seed, gotPeak, wantPeak)
		}
	}
}

// TestReserveInterleavesWithSchedule: Reserve hands out the numbers
// Schedule would have taken, in the same sequence, and an event fires by
// its number however late it was enqueued.
func TestReserveInterleavesWithSchedule(t *testing.T) {
	var q Queue
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }

	a := q.Reserve(3)
	q.Schedule(7, note("plain1"))
	b := q.Reserve(2)
	q.Schedule(7, note("plain2"))
	if b != a+4 {
		t.Fatalf("Reserve(3), Schedule, Reserve(2) gave %d then %d; want consecutive numbers around the Schedule", a, b)
	}
	// Enqueue the tickets late and backwards.
	q.ScheduleReserved(7, b+1, note("b1"))
	q.ScheduleReserved(7, b, note("b0"))
	q.ScheduleReserved(7, a+2, note("a2"))
	q.ScheduleReserved(7, a+1, note("a1"))
	q.ScheduleReserved(7, a, note("a0"))
	q.ScheduleReserved(6, b+1, note("early")) // time still comes first
	for q.Len() > 0 {
		e := q.Pop()
		e.Fire()
		q.Recycle(e)
	}
	want := "[early a0 a1 a2 plain1 b0 b1 plain2]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestHandleSurvivesTicketedInsert: a ticketed insert that sifts past an
// older event moves its heap slot, not its identity — the older handle
// still names, and cancels, its own event.
func TestHandleSurvivesTicketedInsert(t *testing.T) {
	var q Queue
	ticket := q.Reserve(1)
	var ran []string
	h := q.Schedule(5, func() { ran = append(ran, "plain") })
	q.Schedule(5, func() { ran = append(ran, "bystander") })
	q.ScheduleReserved(5, ticket, func() { ran = append(ran, "ticketed") }) // sifts above both
	if at, ok := h.At(); !ok || at != 5 {
		t.Fatalf("handle reports (%d, %v) after a ticketed insert, want (5, true)", at, ok)
	}
	if !q.Cancel(h) {
		t.Fatal("the older handle no longer cancels")
	}
	for q.Len() > 0 {
		e := q.Pop()
		e.Fire()
		q.Recycle(e)
	}
	if got := fmt.Sprint(ran); got != "[ticketed bystander]" {
		t.Fatalf("fired %v, want [ticketed bystander]", got)
	}
}
