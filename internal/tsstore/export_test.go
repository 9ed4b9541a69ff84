package tsstore_test

import (
	"encoding/json"
	"flag"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/tsstore"

	pathload "repro"
)

// exportStore builds a small two-path store with one failed round.
func exportStore() *tsstore.Store {
	st := tsstore.New(tsstore.Config{Capacity: 8})
	for i := 0; i < 3; i++ {
		st.Observe(sample("path-a", i, time.Duration(i)*time.Second, 4e6+float64(i)*1e5, 6e6+float64(i)*1e5))
	}
	st.Observe(sample("path-b", 0, 0, 20e6, 22e6))
	st.Observe(pathload.Sample{Path: "path-b", Round: 1, At: time.Second, Err: io.ErrUnexpectedEOF})
	return st
}

// TestWritePrometheus: the exposition carries every family, labels the
// paths, and is byte-identical across renders (scrape determinism).
func TestWritePrometheus(t *testing.T) {
	st := exportStore()
	var a, b strings.Builder
	if err := st.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := st.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of the same store differ")
	}
	out := a.String()
	for _, want := range []string{
		`pathload_availbw_samples_total{path="path-a"} 3`,
		`pathload_availbw_samples_total{path="path-b"} 2`,
		`pathload_availbw_errors_total{path="path-b"} 1`,
		`pathload_availbw_retained_points{path="path-a"} 3`,
		`pathload_availbw_lo_bps{path="path-b"} 2e+07`,
		`pathload_availbw_quantile_bps{path="path-a",quantile="0.5"}`,
		"# TYPE pathload_availbw_window_relvar gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// path-a sorts before path-b within every family.
	if strings.Index(out, `samples_total{path="path-a"}`) > strings.Index(out, `samples_total{path="path-b"}`) {
		t.Error("paths not sorted in exposition")
	}
}

// TestQuantize checks the MRTG bucket arithmetic.
func TestQuantize(t *testing.T) {
	for _, tc := range []struct {
		avail, step, lo, hi float64
	}{
		{74e6, 6e6, 72e6, 78e6},
		{0, 6e6, 0, 6e6},
		{6e6, 6e6, 6e6, 12e6},
		{5.99e6, 6e6, 0, 6e6},
		{10, 0, 10, 10}, // zero step: identity
	} {
		lo, hi := tsstore.Quantize(tc.avail, tc.step)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("Quantize(%v, %v) = [%v, %v], want [%v, %v]", tc.avail, tc.step, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestWriteMRTG: rows quantize mids into paper-style buckets; error
// rounds render as gaps.
func TestWriteMRTG(t *testing.T) {
	st := exportStore()
	var sb strings.Builder
	if err := st.WriteMRTG(&sb, "path-b", 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// path-b round 0 mid is 21 Mb/s → [18, 24) with the 6 Mb/s default.
	if !strings.Contains(out, "[    18,    24)") {
		t.Errorf("missing 6 Mb/s bucket row:\n%s", out)
	}
	if !strings.Contains(out, "error") {
		t.Errorf("failed round not rendered:\n%s", out)
	}
}

// TestHandler drives every endpoint through httptest.
func TestHandler(t *testing.T) {
	st := exportStore()
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()
	// The federation serves a snapshot through the same handler.
	fed := tsstore.NewFederation(tsstore.Config{})
	fed.Push("agent", "path-a", tsstore.Contribution{Seq: 1, Points: st.Snapshot("path-a"), Digest: st.DigestSnapshot("path-a")})
	fedSrv := httptest.NewServer(fed.Handler())
	defer fedSrv.Close()

	getAt := func(srv *httptest.Server, path string) (int, string) {
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
	get := func(path string) (int, string) {
		t.Helper()
		return getAt(srv, path)
	}

	if code, body := get("/"); code != 200 || !strings.Contains(body, "path-a") {
		t.Errorf("/ → %d\n%s", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "pathload_availbw_samples_total") {
		t.Errorf("/metrics → %d\n%s", code, body)
	}
	if code, body := get("/mrtg?path=path-a"); code != 200 || !strings.Contains(body, "path-a: 3 points") {
		t.Errorf("/mrtg → %d\n%s", code, body)
	}
	if code, _ := get("/mrtg"); code != 400 {
		t.Errorf("/mrtg without path → %d, want 400", code)
	}
	if code, _ := get("/mrtg?path=ghost"); code != 404 {
		t.Errorf("/mrtg unknown path → %d, want 404", code)
	}
	for _, step := range []string{"-1", "0", "NaN", "Inf", "1e308"} { // 1e308 Mb/s overflows to +Inf b/s
		for name, srv := range map[string]*httptest.Server{"store": srv, "federation": fedSrv} {
			if code, _ := getAt(srv, "/mrtg?path=path-a&step="+step); code != 400 {
				t.Errorf("%s /mrtg step=%s → %d, want 400", name, step, code)
			}
		}
	}
	if code, body := getAt(fedSrv, "/mrtg?path=path-a&step=12"); code != 200 || !strings.Contains(body, "12 Mb/s buckets") {
		t.Errorf("federation /mrtg step=12 → %d\n%s", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope → %d, want 404", code)
	}

	code, body := get("/series?path=path-b")
	if code != 200 {
		t.Fatalf("/series → %d\n%s", code, body)
	}
	var series []struct {
		Path      string `json:"path"`
		Samples   uint64 `json:"samples_total"`
		Errors    uint64 `json:"errors_total"`
		Aggregate struct {
			Count  int `json:"count"`
			Errors int `json:"errors"`
		} `json:"aggregate"`
		Points []struct {
			Round int    `json:"round"`
			Err   string `json:"error"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("bad /series JSON: %v\n%s", err, body)
	}
	if len(series) != 1 || series[0].Path != "path-b" || series[0].Samples != 2 || series[0].Errors != 1 {
		t.Fatalf("/series content: %+v", series)
	}
	if len(series[0].Points) != 2 || series[0].Points[1].Err == "" {
		t.Fatalf("/series points: %+v", series[0].Points)
	}
	if code, _ := get("/series?path=ghost"); code != 404 {
		t.Errorf("/series unknown path → %d, want 404", code)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenStore builds a seeded store that takes every branch the
// exposition has: a ring that wrapped under a digest past its centroid
// budget, a ring still filling, a path with only failed rounds, a path
// whose newest round failed, a zero-centre range, a path id that needs
// quoting, and two links.
func goldenStore() *tsstore.Store {
	rng := rand.New(rand.NewSource(21))
	st := tsstore.New(tsstore.Config{Capacity: 8, DigestSize: 16})
	observe := func(path string, rounds int, level float64) {
		for r := 0; r < rounds; r++ {
			mid := level * (0.8 + 0.4*rng.Float64())
			width := 0.2e6 + 1.8e6*rng.Float64()
			st.Observe(sample(path, r, time.Duration(r)*5*time.Second, mid-width/2, mid+width/2))
		}
	}
	fail := func(path string, round int) {
		st.Observe(pathload.Sample{Path: path, Round: round, At: time.Duration(round) * 5 * time.Second, Err: io.ErrUnexpectedEOF})
	}
	observe("wrapped", 40, 74e6) // 40 distinct mids into 16 centroids, 8 retained
	observe("filling", 5, 9.3e6)
	for r := 0; r < 3; r++ {
		fail("only-failed", r)
	}
	observe("newest-failed", 3, 4.1e6)
	fail("newest-failed", 3)
	st.Observe(sample("zero-centre", 0, 0, 0, 0))
	observe(`we"ird\päth`, 2, 155e6)
	for r := 0; r < 3; r++ {
		at := time.Duration(r) * 20 * time.Second
		st.ObserveLink("core-1", r, at, 20*time.Second, 0.2+0.6*rng.Float64(), 155e6)
		st.ObserveLink("edge-2", r, at, 20*time.Second, 0.2+0.6*rng.Float64(), 12.4e6)
	}
	return st
}

// TestMetricsGolden pins the /metrics exposition byte for byte. Run
// with -update to regolden after an intentional change.
func TestMetricsGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenStore().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run once with -update to create it): %v", err)
	}
	if sb.String() != string(want) {
		t.Fatalf("exposition deviates from golden %s:\n--- got ---\n%s\n--- want ---\n%s", golden, sb.String(), want)
	}
}

// escapeIDs are path ids every character class of the label quoting
// meets: a quote, a backslash, a newline, a closing brace, non-ASCII
// text and a byte that is not UTF-8.
var escapeIDs = []string{`say "hi"`, `c:\probe`, "two\nlines", `brace}`, "zürich→genève", "bad\xffbyte"}

// TestEscapeGolden pins the scrape of one store and of a two-agent
// federation snapshot whose path ids all need escaping, byte for byte.
// Run with -update to regolden after an intentional change.
func TestEscapeGolden(t *testing.T) {
	st := tsstore.New(tsstore.Config{Capacity: 4, DigestSize: 8})
	fed := tsstore.NewFederation(tsstore.Config{Capacity: 4, DigestSize: 8})
	for i, id := range escapeIDs {
		level := 1e6 * float64(3+7*i)
		for r := 0; r < 12; r++ { // six distinct mids, each twice: exact hits, and a ring that wrapped
			mid := level + float64(r*r%11)*0.25e6
			st.Observe(sample(id, r, time.Duration(r)*time.Second, mid-0.5e6, mid+0.5e6))
		}
		for a, agent := range []string{"agent-b", "agent-a"} {
			d := tsstore.NewDigest(8)
			c := tsstore.Contribution{Seq: 1, Total: 5, Errors: 1, Digest: d}
			for r := 0; r < 4; r++ {
				mid := level + float64(a+r)*0.1e6
				c.Points = append(c.Points, tsstore.Point{Round: r, At: time.Duration(r) * time.Second, Lo: mid - 0.2e6, Hi: mid + 0.2e6})
				d.Add(mid)
			}
			fed.Push(agent, id, c)
		}
	}
	var sb strings.Builder
	sb.WriteString("# store\n")
	if err := st.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	sb.WriteString("# federation snapshot\n")
	if err := fed.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "escape.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run once with -update to create it): %v", err)
	}
	if sb.String() != string(want) {
		t.Fatalf("exposition deviates from golden %s:\n--- got ---\n%s\n--- want ---\n%s", golden, sb.String(), want)
	}
}
