package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	pathload "repro"
)

// Span names. A span is recorded by the benchmark around a call into a
// layer's public surface; the prefix is the layer (package) called.
const (
	spanRound      = "monitor.round" // a path's first SendStream … its Observe
	spanSendStream = "prober.send_stream"
	spanIdle       = "prober.idle"
	spanObserve    = "tsstore.observe"
	spanObserve1   = "tsstore.observe_first" // the Observe that allocates the path's ring
)

// A span is one timed call across a layer boundary. Parent indexes the
// span that caused it (-1 for a root); spans of one measurement share
// Path and Round.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer was created
	Parent     int
	Path       string
	Round      int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// A tracer keeps spans in memory, one lock-free lane per path (a
// monitor session drives its prober and its sink call from one
// goroutine), and merges them when the run ends.
type tracer struct {
	t0    time.Time
	block int              // index of the block now recording
	lanes map[string]*lane // this block's lanes; read-only once its fleet starts
	order []*lane          // every block's lanes
}

// A lane is one path's span buffer. cur indexes the innermost span now
// in progress (-1 for none), which becomes the parent of the next one.
type lane struct {
	tr       *tracer
	path     string // "b<block>/<path>", so blocks stay apart in the trace
	spans    []span
	cur      int
	observed bool        // the path's ring exists: a later Observe is not a first touch
	owds     [][]float64 // first OWD vectors seen, for the classify micro-probe
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lanes: map[string]*lane{}} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// beginBlock starts a fresh set of lanes: path names repeat from block
// to block.
func (t *tracer) beginBlock(index int) {
	t.block = index
	t.lanes = map[string]*lane{}
}

// lane returns the lane for path, creating it. Call before the fleet
// starts: lanes is not locked.
func (t *tracer) lane(path string) *lane {
	l := t.lanes[path]
	if l == nil {
		l = &lane{tr: t, path: fmt.Sprintf("b%d/%s", t.block, path), cur: -1}
		t.lanes[path] = l
		t.order = append(t.order, l)
	}
	return l
}

// open starts a span under the innermost span in progress and makes it
// the innermost.
func (l *lane) open(name string) int {
	i := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Start: l.tr.now(), Parent: l.cur, Path: l.path})
	l.cur = i
	return i
}

// close ends span i and makes its parent the innermost again.
func (l *lane) close(i int) time.Duration {
	l.spans[i].End = l.tr.now()
	l.cur = l.spans[i].Parent
	return l.spans[i].dur()
}

// time records fn as one span and returns its duration.
func (l *lane) time(name string, fn func()) time.Duration {
	i := l.open(name)
	fn()
	return l.close(i)
}

// beginRound opens a round span unless the lane is inside one.
func (l *lane) beginRound() {
	if l.cur < 0 {
		l.open(spanRound)
	}
}

// endRound closes the round span in progress and stamps round on it and
// on its children.
func (l *lane) endRound(round int) {
	if l.cur < 0 {
		return
	}
	first := l.cur
	l.close(first)
	for i := first; i < len(l.spans); i++ {
		l.spans[i].Round = round
	}
}

// merged returns every lane's spans in one slice, parents re-indexed.
func (t *tracer) merged() []span {
	var out []span
	for _, l := range t.order {
		base := len(out)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are not
// subtracted twice).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < covered {
				lo = covered
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// A spanTotals sums spans of one name.
type spanTotals struct {
	N     int
	Total time.Duration
	Self  time.Duration
	Durs  []float64 // each span's duration, µs
}

func totalsByName(spans []span) map[string]*spanTotals {
	self := selfTimes(spans)
	out := map[string]*spanTotals{}
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.N++
		t.Total += s.dur()
		t.Self += self[i]
		t.Durs = append(t.Durs, float64(s.dur())/1e3)
	}
	return out
}

// writeTrace writes spans as JSON: a table of names and paths, then one
// [name, start_ns, end_ns, parent, path, round] row per span.
func writeTrace(file string, spans []span) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	names, paths := map[string]int{}, map[string]int{}
	var nameList, pathList []string
	intern := func(m map[string]int, list *[]string, s string) int {
		i, ok := m[s]
		if !ok {
			i = len(*list)
			m[s] = i
			*list = append(*list, s)
		}
		return i
	}
	rows := make([][6]int64, len(spans))
	for i, s := range spans {
		rows[i] = [6]int64{int64(intern(names, &nameList, s.Name)), int64(s.Start), int64(s.End),
			int64(s.Parent), int64(intern(paths, &pathList, s.Path)), int64(s.Round)}
	}
	writeStrings := func(key string, list []string) {
		fmt.Fprintf(w, "%q:[", key)
		for i, s := range list {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(strconv.Quote(s))
		}
		w.WriteString("],\n")
	}
	w.WriteString("{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"path\",\"round\"],\n")
	writeStrings("names", nameList)
	writeStrings("paths", pathList)
	w.WriteString("\"spans\":[\n")
	var buf []byte
	for i, r := range rows {
		buf = append(buf[:0], '[')
		for j, v := range r {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		if i < len(rows)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxOWDVectors bounds how many OWD vectors a lane keeps for the
// classify micro-probe.
const maxOWDVectors = 4

// tracedProber wraps a pathload.Prober so every SendStream and Idle
// becomes a span of the path's current round.
type tracedProber struct {
	inner pathload.Prober
	lane  *lane
}

func (p *tracedProber) SendStream(spec pathload.StreamSpec) (res pathload.StreamResult, err error) {
	p.lane.beginRound()
	p.lane.time(spanSendStream, func() { res, err = p.inner.SendStream(spec) })
	if err == nil && len(p.lane.owds) < maxOWDVectors && len(res.OWDs) == spec.K {
		v := make([]float64, len(res.OWDs))
		for i, s := range res.OWDs {
			v[i] = s.OWD.Seconds()
		}
		p.lane.owds = append(p.lane.owds, v)
	}
	return res, err
}

// Idle is a child of the round when it falls between two streams and a
// root span when it is the monitor's re-measurement gap.
func (p *tracedProber) Idle(d time.Duration) (err error) {
	p.lane.time(spanIdle, func() { err = p.inner.Idle(d) })
	return err
}

func (p *tracedProber) RTT() time.Duration { return p.inner.RTT() }

// tracedSink wraps the store: Observe becomes the last child span of
// the path's round and closes it.
type tracedSink struct {
	inner pathload.SampleSink
	tr    *tracer
}

func (s *tracedSink) Observe(sm pathload.Sample) {
	l := s.tr.lanes[sm.Path]
	name := spanObserve
	if !l.observed {
		name, l.observed = spanObserve1, true
	}
	l.time(name, func() { s.inner.Observe(sm) })
	l.endRound(sm.Round)
}

// owdVectors returns the OWD vectors the traced probers captured.
func (t *tracer) owdVectors() [][]float64 {
	var out [][]float64
	for _, l := range t.order {
		out = append(out, l.owds...)
	}
	return out
}
