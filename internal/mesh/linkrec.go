package mesh

import (
	"time"

	"repro/internal/netsim"
)

// A LinkSink receives windowed per-link utilization observations from a
// LinkRecorder. internal/tsstore.Store implements it, which puts the
// shared backbone's links on the same scrape/MRTG surface as the
// per-path samples — the dashboard answer to "which common hop is the
// fleet saturating?".
//
// at and span are virtual times (window start since simulation start,
// and window length); util is the mean utilization over the window;
// capacity is the link's rate in bits/s, so util·capacity is the
// window's mean carried load. Calls arrive from whoever fires the
// recorder — under a sequenced fleet that is the round-boundary hook,
// which runs with exclusive simulator access, so implementations only
// need the same concurrency safety as any other sink.
type LinkSink interface {
	ObserveLink(link string, round int, at, span time.Duration, util, capacity float64)
}

// A LinkRecorder reads every mesh link's meter and emits the
// utilization of the window since the previous snapshot to a LinkSink.
// Fire Snapshot from a SequencedDriver.OnRoundBoundary hook and the
// link series lands one point per fleet round, exactly aligned with the
// sample series the monitor is producing.
type LinkRecorder struct {
	mesh   *Mesh
	sink   LinkSink
	meters []netsim.Meter
}

// NewLinkRecorder creates a recorder whose first window starts now;
// typically called after Warmup so the warmup traffic is not counted.
func (m *Mesh) NewLinkRecorder(sink LinkSink) *LinkRecorder {
	r := &LinkRecorder{mesh: m, sink: sink, meters: make([]netsim.Meter, len(m.links))}
	for i, l := range m.links {
		r.meters[i] = netsim.NewMeter(l)
	}
	return r
}

// Snapshot closes the current window at the simulator's current time
// and emits one observation per link, tagged with round. Zero-length
// windows emit nothing. The caller must have exclusive simulator
// access (a round-boundary hook does).
func (r *LinkRecorder) Snapshot(round int) {
	for i, l := range r.mesh.links {
		rd := r.meters[i].Read()
		if rd.End == rd.Start {
			continue
		}
		r.sink.ObserveLink(r.mesh.Spec.Links[i].Name, round, rd.Start.Duration(), (rd.End - rd.Start).Duration(), rd.Util, float64(l.Capacity()))
	}
}
