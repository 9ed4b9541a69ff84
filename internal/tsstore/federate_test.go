package tsstore

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	pathload "repro"
)

// fedContribution builds a deterministic contribution for (agent,
// path): rounds of points with distinct values and a digest over their
// mid-range estimates.
func fedContribution(agent, path string, rounds int, seq uint64) Contribution {
	base := float64(len(agent)*1000+len(path)) * 1e4
	c := Contribution{Seq: seq, Digest: NewDigest(16)}
	at := time.Duration(0)
	for r := 0; r < rounds; r++ {
		lo := base + float64(r)*1e5
		hi := lo + 5e5
		c.Points = append(c.Points, Point{
			Round: r, At: at, Span: time.Second, Lo: lo, Hi: hi, Bits: 1e4,
		})
		c.Digest.Add((lo + hi) / 2)
		at += 2 * time.Second
	}
	c.Total = uint64(rounds) + 3 // some evicted history
	c.Errors = 1
	return c
}

// renderFed renders the federation's full deterministic scrape surface
// (/series + /metrics) to bytes — the equality currency of these tests.
func renderFed(t *testing.T, f *Federation) string {
	t.Helper()
	h := f.Handler()
	var out string
	for _, ep := range []string{"/series", "/metrics"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", ep, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", ep, rec.Code)
		}
		out += rec.Body.String()
	}
	return out
}

// TestFederationOrderInvariant: pushing the same contributions in any
// delivery order must render byte-identical snapshots — the property
// that makes a fleet of independently-pacing agents trustworthy.
func TestFederationOrderInvariant(t *testing.T) {
	type push struct {
		agent, path string
		c           Contribution
	}
	var pushes []push
	for _, agent := range []string{"a1", "a2", "agent-long"} {
		for _, path := range []string{"p00", "p01", "sim:0.4"} {
			pushes = append(pushes, push{agent, path, fedContribution(agent, path, 3+len(agent)%3, 7)})
		}
	}

	var want string
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		f := NewFederation(Config{Capacity: 16, DigestSize: 32})
		order := rng.Perm(len(pushes))
		for _, i := range order {
			if !f.Push(pushes[i].agent, pushes[i].path, pushes[i].c) {
				t.Fatalf("trial %d: fresh push (%s, %s) not applied", trial, pushes[i].agent, pushes[i].path)
			}
		}
		got := renderFed(t, f)
		if trial == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("trial %d: shuffled delivery order changed the snapshot\norder: %v", trial, order)
		}
	}
	if want == "" {
		t.Fatalf("rendered snapshot is empty")
	}
}

// TestFederationIdempotentRedelivery: re-pushing a contribution with
// the same (or a stale) Seq is a no-op — same bytes out, applied=false
// — so a retrying agent can never double-count its series.
func TestFederationIdempotentRedelivery(t *testing.T) {
	f := NewFederation(Config{Capacity: 16, DigestSize: 32})
	c3 := fedContribution("a1", "p00", 3, 3)
	c5 := fedContribution("a1", "p00", 5, 5)

	if !f.Push("a1", "p00", c3) {
		t.Fatalf("first push not applied")
	}
	before := renderFed(t, f)
	for i := 0; i < 3; i++ {
		if f.Push("a1", "p00", c3) {
			t.Fatalf("redelivery %d of seq 3 applied", i)
		}
	}
	if got := renderFed(t, f); got != before {
		t.Fatalf("redelivery changed the snapshot")
	}

	// A genuinely newer contribution replaces — never accumulates with —
	// the old one.
	if !f.Push("a1", "p00", c5) {
		t.Fatalf("newer push not applied")
	}
	after := renderFed(t, f)
	if after == before {
		t.Fatalf("newer contribution did not change the snapshot")
	}
	if f.Push("a1", "p00", c3) {
		t.Fatalf("stale seq 3 applied over seq 5")
	}
	if got := renderFed(t, f); got != after {
		t.Fatalf("stale redelivery changed the snapshot")
	}

	// The replacement is total: totals reflect c5 alone, not c3+c5.
	st := f.Snapshot()
	total, errs := st.Totals("p00")
	if total != c5.Total || errs != c5.Errors {
		t.Fatalf("Totals = (%d, %d), want (%d, %d) — accumulated instead of replaced", total, errs, c5.Total, c5.Errors)
	}
}

// TestFederationMergesAcrossAgents: two agents contributing to one
// path sum their totals and union their points and digests.
func TestFederationMergesAcrossAgents(t *testing.T) {
	f := NewFederation(Config{Capacity: 32, DigestSize: 32})
	c1 := fedContribution("a1", "p00", 4, 1)
	c2 := fedContribution("a2", "p00", 2, 9)
	f.Push("a1", "p00", c1)
	f.Push("a2", "p00", c2)

	st := f.Snapshot()
	total, errs := st.Totals("p00")
	if total != c1.Total+c2.Total || errs != c1.Errors+c2.Errors {
		t.Fatalf("Totals = (%d, %d), want summed (%d, %d)", total, errs, c1.Total+c2.Total, c1.Errors+c2.Errors)
	}
	if n := st.Len("p00"); n != len(c1.Points)+len(c2.Points) {
		t.Fatalf("Len = %d, want %d", n, len(c1.Points)+len(c2.Points))
	}
	d := st.DigestSnapshot("p00")
	if d == nil || d.Count() != c1.Digest.Count()+c2.Digest.Count() {
		t.Fatalf("merged digest count = %v, want %d", d, c1.Digest.Count()+c2.Digest.Count())
	}
	if got := f.Agents("p00"); len(got) != 2 || got[0] != "a1" || got[1] != "a2" {
		t.Fatalf("Agents = %v", got)
	}
}

// TestFederationIsolation: the federation must own deep copies — a
// pusher mutating its buffers after Push cannot corrupt held state.
func TestFederationIsolation(t *testing.T) {
	f := NewFederation(Config{})
	c := fedContribution("a1", "p00", 2, 1)
	f.Push("a1", "p00", c)
	before := renderFed(t, f)
	c.Points[0].Lo = -1e9
	c.Digest.Add(-1e9)
	if got := renderFed(t, f); got != before {
		t.Fatalf("pusher mutation leaked into the federation")
	}
	// And the same on the way out.
	held, ok := f.Contribution("a1", "p00")
	if !ok {
		t.Fatalf("Contribution missing")
	}
	held.Points[0].Hi = -2e9
	held.Digest.Add(-2e9)
	if got := renderFed(t, f); got != before {
		t.Fatalf("reader mutation leaked into the federation")
	}
}

// TestResume: the store's resume state continues round/clock counters
// from the last retained point, and starts fresh on unknown paths.
func TestResume(t *testing.T) {
	st := New(Config{})
	if got := st.Resume("p00"); got != (pathload.PathState{}) {
		t.Fatalf("fresh Resume = %+v, want the zero state", got)
	}
	st.Observe(pathload.Sample{
		Path: "p00", Round: 4, At: 10 * time.Second,
		Result: pathload.Result{Lo: 1e6, Hi: 2e6, Elapsed: 2 * time.Second},
	})
	if got, want := st.Resume("p00"), (pathload.PathState{Round: 5, At: 12 * time.Second}); got != want {
		t.Fatalf("Resume = %+v, want %+v", got, want)
	}
}
