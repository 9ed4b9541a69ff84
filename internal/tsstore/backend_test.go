package tsstore

import (
	"errors"
	"testing"
	"time"

	pathload "repro"
)

// flakyBackend is the test-fake side of the Backend seam: it records
// what the store tees into it and fails every second append.
type flakyBackend struct {
	points, links int
	closed        bool
}

var errFlaky = errors.New("disk on fire")

func (b *flakyBackend) AppendPoint(string, Point) error {
	b.points++
	if b.points%2 == 0 {
		return errFlaky
	}
	return nil
}

func (b *flakyBackend) AppendLink(string, LinkPoint) error {
	b.links++
	return errFlaky
}

func (b *flakyBackend) Close() error { b.closed = true; return errFlaky }

// TestBackendTee: ingest lands in the store's own rings first and is
// then offered to the backend; a failing backend is counted, never
// allowed to cost the in-memory series a sample.
func TestBackendTee(t *testing.T) {
	be := &flakyBackend{}
	st := NewWithBackend(Config{Capacity: 4}, be)
	for r := 0; r < 6; r++ {
		st.Observe(pathload.Sample{Path: "p", Round: r, At: time.Duration(r) * time.Second, Result: pathload.Result{Lo: 1e6, Hi: 2e6}})
	}
	st.ObserveLink("hop", 0, 0, time.Second, 0.5, 1e7)
	if be.points != 6 || be.links != 1 {
		t.Fatalf("backend saw %d points and %d links, want 6 and 1", be.points, be.links)
	}
	if total, _ := st.Totals("p"); total != 6 || st.Len("p") != 4 || st.LinkTotal("hop") != 1 {
		t.Fatalf("rings: total %d retained %d links %d; want 6, 4, 1", total, st.Len("p"), st.LinkTotal("hop"))
	}
	if n, last := st.BackendErrs(); n != 4 || !errors.Is(last, errFlaky) {
		t.Fatalf("BackendErrs = %d, %v; want 4 failures", n, last)
	}
	if err := st.Close(); !errors.Is(err, errFlaky) || !be.closed {
		t.Fatalf("Close = %v, backend closed %v", err, be.closed)
	}
	// Replays rebuild the rings without going back to the backend.
	st.ReplayPoint("p", Point{Round: 6}, true)
	st.ReplayLink("hop", LinkPoint{Round: 1}, false)
	if be.points != 6 || be.links != 1 {
		t.Fatal("a replay was teed back into the backend")
	}
	if n, _ := New(Config{}).BackendErrs(); n != 0 {
		t.Fatal("a store without a backend reports backend errors")
	}
}
