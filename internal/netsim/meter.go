package netsim

// A Meter reads a link's ground truth the way an MRTG poll of its
// interface counters does (the paper's verification reference, §V-B):
// it holds the counters of its previous read, and each Read returns
// the window since. It pulls — a read settles the link, like Counters,
// and schedules nothing — so a metered simulation fires the same
// events, in the same order, with the same draws as an unmetered one,
// and reading never makes a lazy link eager. Like Counters, a Meter
// belongs to its simulator's goroutine.
type Meter struct {
	link *Link
	at   Time
	last LinkCounters
}

// A Reading is one window of a link's activity.
type Reading struct {
	Start, End Time
	Bytes      uint64  // bytes transmitted during the window
	Util       float64 // mean utilization: busy time over window length
	Avail      float64 // capacity · (1 − Util), bits/s
}

// NewMeter returns a meter on link whose first window starts now.
func NewMeter(link *Link) Meter {
	return Meter{link: link, at: link.sim.now, last: link.Counters()}
}

// Read closes the window at the simulator's current time, returns it,
// and opens the next. A read at the instant of the previous one returns
// an empty window (Util 0) and leaves the meter as it was, so what the
// link does later in that instant still lands in the next window.
func (m *Meter) Read() Reading {
	now := m.link.sim.now
	capacity := float64(m.link.capacity)
	if now == m.at {
		return Reading{Start: m.at, End: m.at, Avail: capacity}
	}
	cur := m.link.Counters()
	util := float64(cur.Busy-m.last.Busy) / float64(now-m.at)
	r := Reading{Start: m.at, End: now, Bytes: cur.BytesOut - m.last.BytesOut, Util: util, Avail: capacity * (1 - util)}
	m.at, m.last = now, cur
	return r
}
