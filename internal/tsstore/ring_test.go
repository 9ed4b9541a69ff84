package tsstore

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRing pins the retention rule every series shares: values come
// back oldest first, a full ring evicts exactly the oldest, total
// counts pushes (evicted included) and never inserts.
func TestRing(t *testing.T) {
	r := ring[int]{limit: 3}
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

// TestRingGrowthMatchesFixedOracle: growing the storage on demand is
// invisible. Against an oracle that keeps every push and reads the last
// limit of them, a ring gives the same at, last, snapshot and total
// after each of 10k pushes and uncounted inserts, and never holds more
// storage than its limit.
func TestRingGrowthMatchesFixedOracle(t *testing.T) {
	for _, limit := range []int{1, 3, 32, 64, 65, 1024} {
		rng := rand.New(rand.NewSource(int64(limit)))
		r := ring[int]{limit: limit}
		var all []int
		var total uint64
		for step := 0; step < 10_000; step++ {
			v := rng.Int()
			all = append(all, v)
			if rng.Intn(8) == 0 {
				r.insert(v)
			} else {
				r.push(v)
				total++
			}
			want := all[max(0, len(all)-limit):]
			if cap(r.buf) > limit {
				t.Fatalf("limit %d step %d: storage of %d values", limit, step, cap(r.buf))
			}
			if r.n != len(want) || r.total != total {
				t.Fatalf("limit %d step %d: retained %d total %d, want %d and %d", limit, step, r.n, r.total, len(want), total)
			}
			if last, ok := r.last(); !ok || last != v {
				t.Fatalf("limit %d step %d: last %d ok %v, want %d", limit, step, last, ok, v)
			}
			if i := rng.Intn(len(want)); r.at(i) != want[i] {
				t.Fatalf("limit %d step %d: at(%d) = %d, want %d", limit, step, i, r.at(i), want[i])
			}
			if step%97 == 0 || len(all) <= 2*ringFirstChunk+2 { // every step through the first growths
				if got := r.snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("limit %d step %d: snapshot %v, want %v", limit, step, got, want)
				}
			}
		}
	}
}
