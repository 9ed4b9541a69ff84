package tsstore

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/mrtg"
)

// exportQuantiles are the quantiles the scrape surface publishes per
// path, ascending, chosen to read like the paper's variability
// analysis: median for the central tendency, the inter-quartile spread,
// and the 5/95 tails that bound the avail-bw process.
var exportQuantiles = [...]float64{0.05, 0.25, 0.5, 0.75, 0.95}

// quantileLabels[k] is the second label of exportQuantiles[k]'s
// /metrics series, rendered once here rather than on every line.
var quantileLabels = [len(exportQuantiles)]string{
	`,quantile="0.05"`, `,quantile="0.25"`, `,quantile="0.5"`, `,quantile="0.75"`, `,quantile="0.95"`,
}

// scrapeChunk is the most WritePrometheus hands its writer in one
// Write: large enough that a thousand-path scrape is some eighteen
// writes, small enough that the pooled buffer behind it stays cheap to
// keep around.
const scrapeChunk = 64 << 10

// scrapeBufs pools the exposition buffers, one per scrape in flight; a
// little over a chunk, so the line that crosses the chunk boundary
// does not regrow it.
var scrapeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, scrapeChunk+4<<10)
	return &b
}}

// A pathRow is everything one path contributes to a scrape, as plain
// values: Store.pathRow reads them off the live ring and digest in one
// locked pass, with no point copied and no digest cloned.
type pathRow struct {
	// label is the series' path="id" label, quoted when the series was
	// created: the scrape copies it onto each line as it is.
	label       string
	total, errs uint64
	retained    int
	// win sums the retained window's successful rounds; the families
	// from lo_bps on are printed only when it holds one (win.n > 0).
	win windowSum
	// The newest successful round in the window, which is not the
	// newest round when that one failed.
	lo, hi, mid, rho float64
	// quantiles follow exportQuantiles, off the all-time digest in one
	// walk: NaN for a path that never had a successful round.
	quantiles [len(exportQuantiles)]float64
}

// pathRow reads the path's series under a single lock acquisition, so
// every value in the row is of one epoch even while a monitor is
// feeding the store; ok is false for unknown paths.
func (st *Store) pathRow(id string) (r pathRow, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	se := st.series[id]
	if se == nil {
		return pathRow{}, false
	}
	r = pathRow{label: se.label, total: se.total, errs: se.errs, retained: se.n}
	var last *Point
	older, newer := se.segments()
	for _, seg := range [2][]Point{older, newer} {
		for i := range seg {
			if p := &seg[i]; p.Err == "" { // not p.OK(), which copies the point
				r.win.add(p.Lo, p.Hi)
				last = p
			}
		}
	}
	if last != nil {
		r.lo, r.hi, r.mid, r.rho = last.Lo, last.Hi, last.Mid(), last.RelVar()
	}
	se.digest.quantiles(exportQuantiles[:], r.quantiles[:])
	return r, true
}

// A linkRow is one link's contribution to a scrape; label is its
// link="name" label, quoted like a path's.
type linkRow struct {
	label string
	total uint64
	last  LinkPoint
}

// linkRow reads the link's window count and newest window under a
// single lock acquisition, like pathRow: the counter and the gauges
// beside it are of one epoch even while a mesh fleet is feeding the
// store. ok is false for unknown and empty links.
func (st *Store) linkRow(name string) (r linkRow, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	se := st.links[name]
	if se == nil {
		return linkRow{}, false
	}
	last, ok := se.last()
	return linkRow{label: "link=" + strconv.Quote(name), total: se.total, last: last}, ok
}

// pathFamilies are the per-path families in exposition order. The
// windowed ones describe successful rounds the ring still holds and
// skip a path that has none.
var pathFamilies = [...]struct {
	name, help, typ string
	windowed        bool
	value           func(*pathRow) float64
}{
	{"pathload_availbw_samples_total", "Monitor rounds ever observed per path (retained and evicted).", "counter", false,
		func(r *pathRow) float64 { return float64(r.total) }},
	{"pathload_availbw_errors_total", "Failed monitor rounds ever observed per path.", "counter", false,
		func(r *pathRow) float64 { return float64(r.errs) }},
	{"pathload_availbw_retained_points", "Points currently held in the path's ring buffer.", "gauge", false,
		func(r *pathRow) float64 { return float64(r.retained) }},
	{"pathload_availbw_lo_bps", "Latest measured avail-bw range lower bound Rmin, bits/s.", "gauge", true,
		func(r *pathRow) float64 { return r.lo }},
	{"pathload_availbw_hi_bps", "Latest measured avail-bw range upper bound Rmax, bits/s.", "gauge", true,
		func(r *pathRow) float64 { return r.hi }},
	{"pathload_availbw_mid_bps", "Latest mid-range avail-bw estimate, bits/s.", "gauge", true,
		func(r *pathRow) float64 { return r.mid }},
	{"pathload_availbw_relvar", "Latest relative variation rho = (Rmax-Rmin)/mid (Eq. 12).", "gauge", true,
		func(r *pathRow) float64 { return r.rho }},
	{"pathload_availbw_window_min_bps", "Minimum Rmin across the retained window, bits/s.", "gauge", true,
		func(r *pathRow) float64 { return r.win.minLo }},
	{"pathload_availbw_window_max_bps", "Maximum Rmax across the retained window, bits/s.", "gauge", true,
		func(r *pathRow) float64 { return r.win.maxHi }},
	{"pathload_availbw_window_mean_bps", "Mean mid-range estimate across the retained window, bits/s.", "gauge", true,
		func(r *pathRow) float64 { return r.win.meanMid() }},
	{"pathload_availbw_window_relvar", "Windowed relative variation of the retained series (long-timescale rho).", "gauge", true,
		func(r *pathRow) float64 { return r.win.relVar() }},
}

// linkFamilies are the per-link families (mesh fleets only): the
// shared backbone's own utilization, so a scrape shows which common hop
// a fleet loads.
var linkFamilies = [...]struct {
	name, help, typ string
	value           func(*linkRow) float64
}{
	{"pathload_link_windows_total", "Utilization windows ever observed per mesh link.", "counter",
		func(r *linkRow) float64 { return float64(r.total) }},
	{"pathload_link_capacity_bps", "Mesh link capacity, bits/s.", "gauge",
		func(r *linkRow) float64 { return r.last.Capacity }},
	{"pathload_link_utilization", "Latest windowed mean utilization of the mesh link.", "gauge",
		func(r *linkRow) float64 { return r.last.Util }},
	{"pathload_link_load_bps", "Latest windowed mean carried load of the mesh link, bits/s.", "gauge",
		func(r *linkRow) float64 { return r.last.Load() }},
	{"pathload_link_availbw_bps", "Latest windowed spare capacity C*(1-u) of the mesh link, bits/s.", "gauge",
		func(r *linkRow) float64 { return r.last.AvailBw() }},
}

// WritePrometheus renders the whole store in the Prometheus text
// exposition format (version 0.0.4): one family per aggregate, one
// labelled series per path, paths sorted so the output is
// deterministic. Wall-clock fields are deliberately absent — under the
// simulator two identical runs scrape byte-identically.
//
// Every row is read first, one lock acquisition per path and per link,
// and only then rendered, so no store lock is ever held across a Write:
// a scraper that stalls mid-response cannot stall Observe. Nothing that
// is fixed per path is redone per scrape: the store keeps its path list
// sorted, each path's label was quoted when its series was created, and
// each digest is walked once for all its quantiles. The text reaches w
// in chunks of scrapeChunk bytes; the first Write error ends the scrape
// and is returned.
func (st *Store) WritePrometheus(w io.Writer) error {
	paths := st.Paths()
	rows := make([]pathRow, 0, len(paths))
	for _, id := range paths {
		if r, ok := st.pathRow(id); ok {
			rows = append(rows, r)
		}
	}
	var links []linkRow
	for _, name := range st.Links() {
		if r, ok := st.linkRow(name); ok {
			links = append(links, r)
		}
	}

	buf := scrapeBufs.Get().(*[]byte)
	e := exposition{w: w, buf: (*buf)[:0]}
	for _, f := range pathFamilies {
		e.family(f.name, f.help, f.typ)
		for i := range rows {
			if r := &rows[i]; !f.windowed || r.win.n > 0 {
				e.series(f.name, r.label, "", f.value(r))
			}
		}
	}
	// Quantile family last, summary-style: one series per path and
	// quantile from the all-time digest.
	const quantiles = "pathload_availbw_quantile_bps"
	e.family(quantiles, "Quantiles of the path's mid-range estimates over all time (digest).", "gauge")
	for i := range rows {
		for k, v := range rows[i].quantiles {
			if !math.IsNaN(v) {
				e.series(quantiles, rows[i].label, quantileLabels[k], v)
			}
		}
	}
	if len(links) > 0 {
		for _, f := range linkFamilies {
			e.family(f.name, f.help, f.typ)
			for i := range links {
				e.series(f.name, links[i].label, "", f.value(&links[i]))
			}
		}
	}
	err := e.finish()
	*buf = e.buf
	scrapeBufs.Put(buf)
	return err
}

// An exposition accumulates exposition text and passes it to w a full
// chunk at a time. Its error is sticky: after the first failed Write
// it takes no more text and calls w no more.
type exposition struct {
	w   io.Writer
	buf []byte
	err error
}

// family starts a metric family.
func (e *exposition) family(name, help, typ string) {
	if e.err != nil {
		return
	}
	e.buf = append(append(append(append(e.buf, "# HELP "...), name...), ' '), help...)
	e.buf = append(append(append(append(e.buf, "\n# TYPE "...), name...), ' '), typ...)
	e.buf = append(e.buf, '\n')
	e.spill()
}

// series adds the sample line name{label moreLabels} v. label is the
// series' first label, already rendered; moreLabels, when not empty,
// is further labels, leading comma included. v is formatted as
// Prometheus clients expect it.
func (e *exposition) series(name, label, moreLabels string, v float64) {
	if e.err != nil {
		return
	}
	e.buf = append(append(append(append(append(e.buf, name...), '{'), label...), moreLabels...), '}', ' ')
	e.buf = append(strconv.AppendFloat(e.buf, v, 'g', -1, 64), '\n')
	e.spill()
}

// spill writes out the full chunks the buffer holds and keeps the rest.
func (e *exposition) spill() {
	for len(e.buf) >= scrapeChunk && e.err == nil {
		_, e.err = e.w.Write(e.buf[:scrapeChunk])
		e.buf = e.buf[:copy(e.buf, e.buf[scrapeChunk:])]
	}
}

// finish writes the last, partial chunk and reports the scrape's error.
func (e *exposition) finish() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	return e.err
}

// MRTGStep is the default exposition bucket for the MRTG-style
// rendering: the paper reads its verification graphs in 6 Mb/s buckets
// (§V-B, "MRTG readings are given as 6-Mb/s ranges").
const MRTGStep = 6e6

// WriteMRTG renders one path's retained series in the shape of the
// paper's MRTG verification tables (§V-B): one row per point, the
// mid-range estimate quantized to step-sized buckets exactly like
// reading a number off an MRTG graph. step is in bits/s; step <= 0
// selects the paper's 6 Mb/s. Unknown paths render an empty table.
func (st *Store) WriteMRTG(w io.Writer, path string, step float64) error {
	if step <= 0 {
		step = MRTGStep
	}
	pts := st.Snapshot(path)
	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	emit("# %s: %d points, %.0f Mb/s buckets\n", path, len(pts), step/1e6)
	emit("%-6s %12s %18s %16s\n", "round", "at", "range (Mb/s)", "bucket (Mb/s)")
	for _, p := range pts {
		if !p.OK() {
			emit("%-6d %12v %18s %16s\n", p.Round, p.At, "error", "-")
			continue
		}
		lo, hi := mrtg.Quantize(p.Mid(), step)
		emit("%-6d %12v [%7.2f,%7.2f] [%6.0f,%6.0f)\n", p.Round, p.At, p.Lo/1e6, p.Hi/1e6, lo/1e6, hi/1e6)
	}
	return err
}

// seriesJSON is the /series response shape.
type seriesJSON struct {
	Path      string   `json:"path"`
	Samples   uint64   `json:"samples_total"`
	Errors    uint64   `json:"errors_total"`
	Aggregate aggJSON  `json:"aggregate"`
	Quantiles []qtJSON `json:"quantiles,omitempty"`
	Points    []ptJSON `json:"points"`
}

type aggJSON struct {
	Count      int     `json:"count"`
	Errors     int     `json:"errors"`
	MinLo      float64 `json:"min_lo_bps"`
	MaxHi      float64 `json:"max_hi_bps"`
	MeanMid    float64 `json:"mean_mid_bps"`
	MeanRelVar float64 `json:"mean_relvar"`
	RelVar     float64 `json:"window_relvar"`
}

type qtJSON struct {
	Q float64 `json:"q"`
	V float64 `json:"mid_bps"`
}

// ptJSON always carries lo/hi — a saturated path can legitimately
// report Lo == 0, so field absence must not double as an error marker;
// the error field alone distinguishes failed rounds.
type ptJSON struct {
	Round  int     `json:"round"`
	AtMs   float64 `json:"at_ms"`
	SpanMs float64 `json:"span_ms"`
	Lo     float64 `json:"lo_bps"`
	Hi     float64 `json:"hi_bps"`
	Err    string  `json:"error,omitempty"`
}

// Handler serves the store over HTTP:
//
//	/          index: known paths and endpoints
//	/metrics   Prometheus text exposition (WritePrometheus)
//	/series    per-path JSON series; ?path= selects one, default all
//	/mrtg      paper-style MRTG bucket table; ?path= required, ?step= Mb/s
//
// The handler only reads the store, so it is safe to scrape while a
// monitor is feeding it.
func (st *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "pathload time-series store: %d paths, %d links\n\n", len(st.Paths()), len(st.Links()))
		fmt.Fprintf(w, "endpoints:\n  /metrics          Prometheus exposition\n  /series[?path=p]  JSON series\n  /mrtg?path=p      MRTG-style buckets (&step= Mb/s)\n  /mrtg?link=l      per-link utilization buckets (mesh fleets)\n\npaths:\n")
		for _, id := range st.Paths() {
			total, errs := st.Totals(id)
			fmt.Fprintf(w, "  %-12s %d samples (%d errors), %d retained\n", id, total, errs, st.Len(id))
		}
		if links := st.Links(); len(links) > 0 {
			fmt.Fprintf(w, "\nlinks:\n")
			for _, l := range links {
				fmt.Fprintf(w, "  %-12s %d windows, %d retained\n", l, st.LinkTotal(l), st.LinkLen(l))
			}
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		st.WritePrometheus(w)
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		paths := st.Paths()
		if p := r.URL.Query().Get("path"); p != "" {
			if st.Len(p) == 0 {
				http.Error(w, fmt.Sprintf("unknown path %q", p), http.StatusNotFound)
				return
			}
			paths = []string{p}
		}
		out := make([]seriesJSON, 0, len(paths))
		for _, id := range paths {
			out = append(out, st.seriesJSON(id))
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	mux.HandleFunc("/mrtg", func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Query().Get("path")
		l := r.URL.Query().Get("link")
		switch {
		case p == "" && l == "":
			http.Error(w, "missing ?path= or ?link=", http.StatusBadRequest)
			return
		case p != "" && l != "":
			http.Error(w, "pick one of ?path= or ?link=", http.StatusBadRequest)
			return
		case p != "" && st.Len(p) == 0:
			http.Error(w, fmt.Sprintf("unknown path %q", p), http.StatusNotFound)
			return
		case l != "" && st.LinkLen(l) == 0:
			http.Error(w, fmt.Sprintf("unknown link %q", l), http.StatusNotFound)
			return
		}
		step := 0.0
		if s := r.URL.Query().Get("step"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			step = v * 1e6
			if err != nil || !(step > 0 && step <= math.MaxFloat64) { // NaN and ±Inf fail too
				http.Error(w, fmt.Sprintf("bad ?step=%q (want finite Mb/s > 0)", s), http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if l != "" {
			st.WriteLinkMRTG(w, l, step)
			return
		}
		st.WriteMRTG(w, p, step)
	})
	return mux
}

// seriesJSON builds the JSON view of one path from a single consistent
// store read.
func (st *Store) seriesJSON(id string) seriesJSON {
	v, ok := st.view(id)
	if !ok {
		return seriesJSON{Path: id}
	}
	agg := st.aggregate(v.pts)
	s := seriesJSON{Path: id, Samples: v.total, Errors: v.errs}
	s.Aggregate = aggJSON{
		Count: agg.Count, Errors: agg.Errors,
		MinLo: agg.MinLo, MaxHi: agg.MaxHi, MeanMid: agg.MeanMid,
		MeanRelVar: agg.MeanRelVar, RelVar: agg.RelVar,
	}
	var qs [len(exportQuantiles)]float64
	v.digest.quantiles(exportQuantiles[:], qs[:])
	for k, val := range qs {
		if !math.IsNaN(val) {
			s.Quantiles = append(s.Quantiles, qtJSON{Q: exportQuantiles[k], V: val})
		}
	}
	for _, p := range v.pts {
		s.Points = append(s.Points, ptJSON{
			Round:  p.Round,
			AtMs:   float64(p.At) / float64(time.Millisecond),
			SpanMs: float64(p.Span) / float64(time.Millisecond),
			Lo:     p.Lo, Hi: p.Hi, Err: p.Err,
		})
	}
	return s
}
