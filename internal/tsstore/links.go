package tsstore

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// A LinkPoint is one windowed utilization observation of a shared
// backbone link, as produced by mesh.LinkRecorder at fleet round
// boundaries: the per-*link* counterpart of the per-path Point. The
// link series answer the dashboard question the path series cannot —
// which common hop a fleet is saturating.
type LinkPoint struct {
	// Round is the fleet round boundary that closed the window.
	Round int
	// At is the window's start, virtual time since simulation start;
	// Span its length.
	At, Span time.Duration
	// Util is the link's mean utilization over the window.
	Util float64
	// Capacity is the link rate in bits/s.
	Capacity float64
}

// Load returns the window's mean carried load in bits/s.
func (p LinkPoint) Load() float64 { return p.Util * p.Capacity }

// AvailBw returns the window's spare capacity C·(1−u) in bits/s — the
// per-hop term of the paper's A = min over the route of C_l·(1−u_l).
func (p LinkPoint) AvailBw() float64 { return p.Capacity * (1 - p.Util) }

// ObserveLink records one windowed link utilization observation. It
// implements mesh.LinkSink, so a Store can be handed directly to
// mesh.(*Mesh).NewLinkRecorder; safe for concurrent use with every
// other store method.
func (st *Store) ObserveLink(link string, round int, at, span time.Duration, util, capacity float64) {
	p := LinkPoint{Round: round, At: at, Span: span, Util: util, Capacity: capacity}
	st.mu.Lock()
	st.ensureLink(link).push(p)
	st.mu.Unlock()
	if st.dur != nil {
		st.noteDurErr(st.dur.AppendLink(link, p))
	}
}

// ensureLink returns the link's ring, creating it empty if needed: a
// ring like the per-path series' but without a digest, since link
// windows are already aggregates. The caller holds st.mu.
func (st *Store) ensureLink(link string) *ring[LinkPoint] {
	se := st.links[link]
	if se == nil {
		se = &ring[LinkPoint]{limit: st.cfg.Capacity}
		st.links[link] = se
	}
	return se
}

// ReplayLink re-inserts a recovered link window; counted as in
// ReplayPoint (a link series has no digest, only a total).
func (st *Store) ReplayLink(link string, p LinkPoint, counted bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	se := st.ensureLink(link)
	if counted {
		se.push(p)
	} else {
		se.insert(p)
	}
}

// SeedLink primes a link's all-time window count from a checkpoint and
// sizes its ring for them, up to its limit, as SeedSeries does.
func (st *Store) SeedLink(link string, total uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	se := st.ensureLink(link)
	se.total = total
	se.reserve(int(min(total, uint64(se.limit))))
}

// Links returns the known link names, sorted, so every rendering of
// the link series is deterministic.
func (st *Store) Links() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	names := make([]string, 0, len(st.links))
	for name := range st.links {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LinkLen returns the number of retained windows for link (0 for
// unknown links).
func (st *Store) LinkLen(link string) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if se := st.links[link]; se != nil {
		return se.n
	}
	return 0
}

// LinkTotal returns how many windows the link has ever delivered
// (retained + evicted).
func (st *Store) LinkTotal(link string) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if se := st.links[link]; se != nil {
		return se.total
	}
	return 0
}

// LinkSnapshot copies the link's retained windows in chronological
// order (nil for unknown links).
func (st *Store) LinkSnapshot(link string) []LinkPoint {
	st.mu.RLock()
	defer st.mu.RUnlock()
	se := st.links[link]
	if se == nil {
		return nil
	}
	return se.snapshot()
}

// WriteLinkMRTG renders one link's retained utilization series in the
// shape of the paper's MRTG verification tables (§V-B), like WriteMRTG
// but for the carried load of one shared hop: one row per fleet-round
// window, the mean carried load quantized to step-sized buckets. step
// is in bits/s; step <= 0 selects the paper's 6 Mb/s. Unknown links
// render an empty table.
func (st *Store) WriteLinkMRTG(w io.Writer, link string, step float64) error {
	if step <= 0 {
		step = MRTGStep
	}
	pts := st.LinkSnapshot(link)
	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	capBps := 0.0
	if len(pts) > 0 {
		capBps = pts[len(pts)-1].Capacity
	}
	emit("# link %s: %d windows, capacity %.1f Mb/s, %.0f Mb/s buckets\n", link, len(pts), capBps/1e6, step/1e6)
	emit("%-6s %12s %6s %12s %12s %16s\n", "round", "at", "util", "load (Mb/s)", "avail (Mb/s)", "bucket (Mb/s)")
	for _, p := range pts {
		lo, hi := Quantize(p.Load(), step)
		emit("%-6d %12v %5.1f%% %12.2f %12.2f [%6.0f,%6.0f)\n",
			p.Round, p.At, p.Util*100, p.Load()/1e6, p.AvailBw()/1e6, lo/1e6, hi/1e6)
	}
	return err
}
