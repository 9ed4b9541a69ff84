package tsstore

import (
	"reflect"
	"testing"
)

// TestRing pins the retention rule every series shares: values come
// back oldest first, a full ring evicts exactly the oldest, total
// counts pushes (evicted included) and never inserts.
func TestRing(t *testing.T) {
	r := ring[int]{buf: make([]int, 3)}
	if _, ok := r.last(); ok || len(r.snapshot()) != 0 {
		t.Fatal("empty ring has contents")
	}
	for v := 1; v <= 2; v++ {
		r.push(v)
	}
	if got := r.snapshot(); !reflect.DeepEqual(got, []int{1, 2}) || r.total != 2 {
		t.Fatalf("before wrap: %v total %d", got, r.total)
	}
	for v := 3; v <= 8; v++ { // wraps twice
		r.push(v)
		if got, want := r.snapshot(), []int{v - 2, v - 1, v}; !reflect.DeepEqual(got, want) {
			t.Fatalf("after pushing %d: %v, want %v", v, got, want)
		}
		if last, ok := r.last(); !ok || last != v || r.at(0) != v-2 {
			t.Fatalf("after pushing %d: last %d ok %v, oldest %d", v, last, ok, r.at(0))
		}
	}
	if r.n != 3 || r.total != 8 {
		t.Fatalf("retained %d total %d, want 3 and 8", r.n, r.total)
	}
	r.insert(9) // uncounted: evicts like push, leaves total alone
	if got := r.snapshot(); !reflect.DeepEqual(got, []int{7, 8, 9}) || r.total != 8 {
		t.Fatalf("after insert: %v total %d, want [7 8 9] and 8", got, r.total)
	}
}
