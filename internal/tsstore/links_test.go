package tsstore_test

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/tsstore"
)

// linkStore builds a store holding two link series next to one path
// series, with hop-00 pushed past its ring capacity.
func linkStore() *tsstore.Store {
	st := tsstore.New(tsstore.Config{Capacity: 4})
	st.Observe(sample("path-a", 0, 0, 4e6, 6e6))
	for r := 0; r < 6; r++ {
		st.ObserveLink("hop-00", r, time.Duration(r)*time.Second, time.Second, 0.5+0.05*float64(r), 10e6)
	}
	st.ObserveLink("core", 0, 0, time.Second, 0.8, 40e6)
	return st
}

// TestLinkSeries: the per-link ring mirrors the per-path one — sorted
// names, retained vs lifetime counts across eviction, chronological
// snapshots — and LinkPoint derives load and avail-bw from C and u.
func TestLinkSeries(t *testing.T) {
	st := linkStore()
	if got := st.Links(); len(got) != 2 || got[0] != "core" || got[1] != "hop-00" {
		t.Fatalf("Links() = %v, want sorted [core hop-00]", got)
	}
	if n, total := st.LinkLen("hop-00"), st.LinkTotal("hop-00"); n != 4 || total != 6 {
		t.Errorf("hop-00 retained %d / total %d, want 4 / 6 (ring wrapped)", n, total)
	}
	if n, total := st.LinkLen("ghost"), st.LinkTotal("ghost"); n != 0 || total != 0 {
		t.Errorf("unknown link reports %d retained / %d total, want zeros", n, total)
	}

	pts := st.LinkSnapshot("hop-00")
	if len(pts) != 4 {
		t.Fatalf("snapshot has %d windows, want 4", len(pts))
	}
	for i, p := range pts {
		if p.Round != i+2 {
			t.Errorf("snapshot[%d].Round = %d, want %d (oldest evicted first)", i, p.Round, i+2)
		}
	}
	if st.LinkSnapshot("ghost") != nil {
		t.Error("unknown link snapshot is non-nil")
	}

	last := pts[len(pts)-1]
	if last.Round != 5 {
		t.Fatalf("last window = %+v; want round 5", last)
	}
	// Round 5: u = 0.75 on C = 10 Mb/s.
	if load := last.Load(); load != 7.5e6 {
		t.Errorf("Load() = %v, want 7.5e6", load)
	}
	if a := last.AvailBw(); a != 2.5e6 {
		t.Errorf("AvailBw() = %v, want 2.5e6 (C·(1−u))", a)
	}
}

// TestWriteLinkMRTG: the per-link table carries the capacity header and
// quantizes each window's carried load into paper-style buckets;
// unknown links render an empty (but well-formed) table.
func TestWriteLinkMRTG(t *testing.T) {
	st := linkStore()
	var sb strings.Builder
	if err := st.WriteLinkMRTG(&sb, "core", 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# link core: 1 windows, capacity 40.0 Mb/s") {
		t.Errorf("missing capacity header:\n%s", out)
	}
	// core: u = 0.8 on C = 40 Mb/s → 32 Mb/s carried → [30, 36) at the
	// default 6 Mb/s step.
	if !strings.Contains(out, "[    30,    36)") {
		t.Errorf("missing default-step bucket row:\n%s", out)
	}

	sb.Reset()
	if err := st.WriteLinkMRTG(&sb, "ghost", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# link ghost: 0 windows") {
		t.Errorf("unknown link table:\n%s", sb.String())
	}
}

// TestHandlerLinkMRTG drives the /mrtg?link= side of the scrape
// handler, including the ambiguity and unknown-link errors.
func TestHandlerLinkMRTG(t *testing.T) {
	srv := httptest.NewServer(linkStore().Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/mrtg?link=hop-00"); code != 200 || !strings.Contains(body, "# link hop-00: 4 windows") {
		t.Errorf("/mrtg?link → %d\n%s", code, body)
	}
	if code, body := get("/mrtg?link=core&step=12"); code != 200 || !strings.Contains(body, "12 Mb/s buckets") {
		t.Errorf("/mrtg?link&step → %d\n%s", code, body)
	}
	if code, body := get("/mrtg?path=path-a&link=core"); code != 400 || !strings.Contains(body, "pick one") {
		t.Errorf("/mrtg with both selectors → %d\n%s", code, body)
	}
	if code, _ := get("/mrtg?link=ghost"); code != 404 {
		t.Errorf("/mrtg unknown link → %d, want 404", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "links:") || !strings.Contains(body, "hop-00") {
		t.Errorf("/ misses the link inventory → %d\n%s", code, body)
	}
}
