// Package tsstore retains and aggregates per-path avail-bw time
// series. It is the persistence layer behind pathload.Monitor that the
// paper's dynamics study (§VI) presupposes: variability ρ (Eq. 12),
// relative variation, and "does the estimate track load changes" are
// all properties of a *series*, not of one measurement, so the monitor
// fire-hosing Samples down a channel is not enough — something has to
// remember them.
//
// A Store keeps one fixed-capacity ring buffer of Points per path
// (oldest samples are evicted once a path wraps), a running quantile
// Digest of the path's mid-range estimates over all time, and offers
// windowed aggregation (min/max/mean, windowed ρ, quantiles) through
// Window and AggregatePoints. The scrape/rendering surface on top of
// it — Prometheus-style text exposition, the paper-style MRTG bucket
// rendering, and an HTTP handler — lives in export.go.
//
// A Store implements pathload.SampleSink, so wiring it into a monitor
// is one field: MonitorConfig{Store: store}. All methods are safe for
// concurrent use; Observe is called from every session goroutine of
// the monitor at once.
package tsstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	pathload "repro"
	"repro/internal/wire"
)

// DefaultCapacity is the default per-path ring size. At the paper's
// operational cadence (a measurement every few seconds, §VI-C) 1024
// points retain on the order of an hour of history per path.
const DefaultCapacity = 1024

// Config tunes a Store. The zero value is usable.
type Config struct {
	// Capacity is the number of Points retained per path before the
	// ring wraps and evicts the oldest. 0 selects DefaultCapacity;
	// negative values are rejected by New.
	Capacity int
	// DigestSize is the centroid budget of every quantile digest the
	// store builds. 0 selects DefaultDigestSize.
	DigestSize int
}

// A Point is one stored sample of a path's avail-bw series: the
// monitor's Sample with the fields the retention layer needs, made
// comparable across runs (At and Span are virtual path-local time
// under the simulator, so stored series are reproducible).
type Point struct {
	// Round counts the path's measurements from 0 (monotone per path,
	// even across ring eviction).
	Round int
	// At is the path-local time offset of the measurement start.
	At time.Duration
	// Span is the probing time the measurement consumed; At+Span is
	// the path-local end of the round.
	Span time.Duration
	// Wall is the wall-clock completion time, kept for dashboards but
	// excluded from all deterministic renderings.
	Wall time.Time
	// Lo and Hi bracket the measured avail-bw variation range, bits/s
	// (the paper's [Rmin, Rmax]); both are 0 for failed rounds.
	Lo, Hi float64
	// Bits is the probe load the round injected (§VIII intrusiveness
	// accounting), recorded for failed rounds too — budget analyses
	// need the cost of every round, not just the useful ones.
	Bits float64
	// Err is the measurement error text for failed rounds, "" for
	// successful ones.
	Err string
}

// OK reports whether the round succeeded.
func (p Point) OK() bool { return p.Err == "" }

// Mid returns the center of the point's range.
func (p Point) Mid() float64 { return (p.Lo + p.Hi) / 2 }

// RelVar returns the point's relative variation ρ = (Hi−Lo)/Mid
// (Eq. 12), or 0 for a zero-center range.
func (p Point) RelVar() float64 {
	if p.Mid() == 0 {
		return 0
	}
	return (p.Hi - p.Lo) / p.Mid()
}

// AppendBinary appends the point's binary form to b (a nil b becomes
// one allocation of exactly the encoded size): Round, At, Span as u64,
// Lo, Hi, Bits as float64 bits, Err as a u16-length-prefixed string cut
// to what that length can state — all big-endian. Wall is deliberately left out:
// pushes and archives must be byte-reproducible under the deterministic
// harness, and wall clocks are the one field that never is. This is the
// layout of a point in an SLCP push and in the archive's older KindPoint
// records (new ones hold AppendCompact); ReadPoint is its inverse.
func (p Point) AppendBinary(b []byte) []byte {
	if b == nil {
		b = make([]byte, 0, 8*6+2+min(len(p.Err), math.MaxUint16))
	}
	b = binary.BigEndian.AppendUint64(b, uint64(p.Round))
	b = binary.BigEndian.AppendUint64(b, uint64(p.At))
	b = binary.BigEndian.AppendUint64(b, uint64(p.Span))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Lo))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Hi))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Bits))
	return wire.AppendString(b, p.Err)
}

// ReadPoint reads one AppendBinary point off r (Wall stays zero). A
// short payload fails r, not the call: check r.Err, Done or Finish.
func ReadPoint(r *wire.Reader) Point {
	return Point{
		Round: int(int64(r.U64())),
		At:    r.Dur(),
		Span:  r.Dur(),
		Lo:    r.F64(),
		Hi:    r.F64(),
		Bits:  r.F64(),
		Err:   r.Str(),
	}
}

// AppendCompact appends the point's compact form to b (a nil b becomes
// one allocation of exactly the encoded size): Round, At, Span as
// zigzag varints, Lo, Hi, Bits as big-endian float64 bits (so they
// round-trip bit for bit), Err as a uvarint-length-prefixed string cut
// to 65 535 bytes. Wall is left out, as in AppendBinary. This is an
// archive point record's payload: a round count takes a byte or two,
// and a duration of seconds five or six, rather than 8 each.
// ReadCompactPoint is its inverse.
func (p Point) AppendCompact(b []byte) []byte {
	if b == nil {
		b = make([]byte, 0, wire.VarintLen(int64(p.Round))+wire.VarintLen(int64(p.At))+
			wire.VarintLen(int64(p.Span))+8*3+wire.VarStringLen(p.Err))
	}
	b = binary.AppendVarint(b, int64(p.Round))
	b = binary.AppendVarint(b, int64(p.At))
	b = binary.AppendVarint(b, int64(p.Span))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Lo))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Hi))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Bits))
	return wire.AppendVarString(b, p.Err)
}

// ReadCompactPoint reads one AppendCompact point off r (Wall stays
// zero). A short or non-canonical payload fails r, not the call.
func ReadCompactPoint(r *wire.Reader) Point {
	return Point{
		Round: int(r.Varint()),
		At:    time.Duration(r.Varint()),
		Span:  time.Duration(r.Varint()),
		Lo:    r.F64(),
		Hi:    r.F64(),
		Bits:  r.F64(),
		Err:   r.VarStr(),
	}
}

// series is one path's retained history: a ring of Points (whose total
// counts the points ever observed) plus the failed-round count and a
// running digest of mid-range estimates.
type series struct {
	ring[Point]
	errs   uint64  // failed rounds ever observed
	digest *Digest // all-time digest of OK mid-range estimates
	// label is the path's /metrics label, path="id" with the id quoted
	// as fmt's %q quotes it: rendered once, when the series is created,
	// since an id never changes and every scrape prints it on every line.
	label string
}

// push appends a point, evicting the oldest when full, and counts it
// toward the all-time totals and digest. The promoted ring insert is
// the uncounted half.
func (s *series) push(p Point) {
	s.ring.push(p)
	if p.OK() {
		s.digest.Add(p.Mid())
	} else {
		s.errs++
	}
}

// A Store retains per-path avail-bw series. Create with New (or
// NewWithBackend to tee ingest into a durable Backend); feed it by
// setting it as a MonitorConfig.Store (or by calling Observe
// directly). The zero Store is not usable.
//
// Serving always comes from the in-memory ring tier: a durable
// backend, when present, is write-through on ingest and consulted only
// at recovery time (ReplayPoint/SeedSeries and friends rebuild the
// rings from it).
type Store struct {
	cfg Config
	dur Backend

	mu     sync.RWMutex
	series map[string]*series
	paths  []string // the keys of series, sorted; ensure inserts each new one
	links  map[string]*ring[LinkPoint]

	durMu   sync.Mutex
	durErrs uint64
	durErr  error
}

// validated returns cfg with its defaults filled in. It panics on a
// negative Capacity or DigestSize: silent acceptance would turn every
// path into a zero-size ring that remembers nothing.
func (cfg Config) validated() Config {
	if cfg.Capacity < 0 || cfg.DigestSize < 0 {
		panic(fmt.Sprintf("tsstore: negative Capacity %d or DigestSize %d", cfg.Capacity, cfg.DigestSize))
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.DigestSize == 0 {
		cfg.DigestSize = DefaultDigestSize
	}
	return cfg
}

// New creates an empty store. It panics on a negative Capacity or
// DigestSize.
func New(cfg Config) *Store {
	return NewWithBackend(cfg, nil)
}

// NewWithBackend creates an empty store whose ingest is teed into dur
// (nil behaves like New). Observe cannot return an error, so append
// failures of the durable tier are counted and kept — the in-memory
// series stay correct regardless — and reported by BackendErrs; the
// caller decides whether a lossy archive is fatal.
func NewWithBackend(cfg Config, dur Backend) *Store {
	return &Store{cfg: cfg.validated(), dur: dur, series: map[string]*series{}, links: map[string]*ring[LinkPoint]{}}
}

// ensure returns the path's series, creating it empty if needed and
// inserting its id into the sorted path list. The caller holds st.mu.
func (st *Store) ensure(path string) *series {
	se := st.series[path]
	if se == nil {
		se = &series{ring: ring[Point]{limit: st.cfg.Capacity}, digest: NewDigest(st.cfg.DigestSize),
			label: "path=" + strconv.Quote(path)}
		st.series[path] = se
		i, _ := slices.BinarySearch(st.paths, path)
		st.paths = slices.Insert(st.paths, i, path)
	}
	return se
}

// Observe records one monitor sample into the path's ring. It
// implements pathload.SampleSink and is safe to call from every
// session goroutine concurrently. Failed rounds are retained too (as
// Points with Err set): a gap in a path's series is itself signal
// (§VI: an unmeasurable path is a dynamics event, not a non-event).
func (st *Store) Observe(s pathload.Sample) {
	// Span and Bits are copied even for failed rounds: Run reports the
	// probing time and load it consumed before the error, and the
	// monitor advances the path clock by the former, so dropping them
	// would leave timeline gaps and under-count probe cost.
	p := Point{Round: s.Round, At: s.At, Wall: s.Wall, Span: s.Result.Elapsed, Bits: s.Result.Bits}
	if s.Err != nil {
		p.Err = s.Err.Error()
	} else {
		p.Lo, p.Hi = s.Result.Lo, s.Result.Hi
	}
	st.mu.Lock()
	st.ensure(s.Path).push(p)
	st.mu.Unlock()
	if st.dur != nil {
		st.noteDurErr(st.dur.AppendPoint(s.Path, p))
	}
}

// noteDurErr counts a durable-tier append failure (nil is a no-op).
func (st *Store) noteDurErr(err error) {
	if err == nil {
		return
	}
	st.durMu.Lock()
	st.durErrs++
	st.durErr = err
	st.durMu.Unlock()
}

// BackendErrs reports how many durable-backend appends have failed
// since the store was created, and the most recent failure. Zero and
// nil for stores without a durable backend (or without failures).
func (st *Store) BackendErrs() (n uint64, last error) {
	st.durMu.Lock()
	defer st.durMu.Unlock()
	return st.durErrs, st.durErr
}

// Close closes the durable backend, if any. The in-memory tier remains
// readable; further ingest would be lost to the archive, so callers
// close only after the monitor has stopped.
func (st *Store) Close() error {
	if st.dur != nil {
		return st.dur.Close()
	}
	return nil
}

// ReplayPoint re-inserts a recovered point into the path's ring,
// bypassing the durable backend (the record is already durable — that
// is where it came from). Counted replays contribute to the all-time
// totals and digest like live samples; uncounted replays touch only
// the ring, for records a later checkpoint already summarizes (their
// counters arrive via SeedSeries — counting them twice is the classic
// replay double-count).
func (st *Store) ReplayPoint(path string, p Point, counted bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	se := st.ensure(path)
	if counted {
		se.push(p)
	} else {
		se.insert(p)
	}
}

// SeedSeries primes a path's all-time counters and digest from a
// checkpoint, overwriting whatever replay accumulated so far (d may be
// nil to keep the current digest). Recovery order is: uncounted replay
// of checkpointed records, SeedSeries, counted replay of the tail.
func (st *Store) SeedSeries(path string, total, errs uint64, d *Digest) {
	st.mu.Lock()
	defer st.mu.Unlock()
	se := st.ensure(path)
	se.total, se.errs = total, errs
	if d != nil {
		se.digest = d.clone()
	}
}

// Paths returns the known path identifiers, sorted, so that every
// rendering of the store is deterministic. The store keeps them sorted
// as it learns them; this is a copy.
func (st *Store) Paths() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return append(make([]string, 0, len(st.paths)), st.paths...)
}

// Len returns the number of retained points for path (0 for unknown
// paths).
func (st *Store) Len(path string) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if se := st.series[path]; se != nil {
		return se.n
	}
	return 0
}

// Last returns the path's most recent retained point; ok is false for
// unknown or empty paths. An agent handing a lease back resumes the
// path's series from here (pathload.PathState), so round numbering and
// the path-local clock stay monotone across monitor restarts.
func (st *Store) Last(path string) (Point, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if se := st.series[path]; se != nil {
		return se.last()
	}
	return Point{}, false
}

// DigestSnapshot returns a deep copy of the path's all-time digest of
// mid-range estimates (nil for unknown paths). The copy is the caller's
// to mutate or marshal — it is how an agent ships its eviction-proof
// distribution summary to a federating coordinator.
func (st *Store) DigestSnapshot(path string) *Digest {
	st.mu.RLock()
	defer st.mu.RUnlock()
	se := st.series[path]
	if se == nil {
		return nil
	}
	return se.digest.clone()
}

// Totals returns how many samples the path has ever delivered
// (retained + evicted) and how many of them failed.
func (st *Store) Totals(path string) (samples, errors uint64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if se := st.series[path]; se != nil {
		return se.total, se.errs
	}
	return 0, 0
}

// Snapshot copies the path's retained points in chronological order.
func (st *Store) Snapshot(path string) []Point {
	st.mu.RLock()
	defer st.mu.RUnlock()
	se := st.series[path]
	if se == nil {
		return nil
	}
	return se.snapshot()
}

// Query returns the retained points whose measurement start At falls
// in the half-open window [from, to), in chronological order.
func (st *Store) Query(path string, from, to time.Duration) []Point {
	st.mu.RLock()
	defer st.mu.RUnlock()
	se := st.series[path]
	if se == nil {
		return nil
	}
	var out []Point
	for i := 0; i < se.n; i++ {
		if p := se.at(i); p.At >= from && p.At < to {
			out = append(out, p)
		}
	}
	return out
}

// RelVar returns the windowed relative variation ρ of the path's
// series over the trailing window of path-local time: the widest
// [MinLo, MaxHi] the process visited across the retained points whose
// measurement start lies within window of the path's most recent
// point, over that range's center (the §VI-B long-timescale ρ). A
// non-positive window covers the whole retained series. ok is false
// for unknown paths and windows with no successful rounds.
//
// This is the scheduler feedback query (schedule.VarSource): an
// Adaptive scheduler reads each path's recent ρ back from the store
// the monitor feeds, closing the tsstore → scheduler loop, so quiet
// paths probe rarely and volatile paths often.
func (st *Store) RelVar(path string, window time.Duration) (rho float64, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	se := st.series[path]
	if se == nil || se.n == 0 {
		return 0, false
	}
	from := time.Duration(-1 << 62)
	if window > 0 {
		from = se.at(se.n-1).At - window
	}
	var w windowSum
	for i := 0; i < se.n; i++ {
		if p := se.at(i); p.OK() && p.At >= from {
			w.add(p.Lo, p.Hi)
		}
	}
	if w.n == 0 {
		return 0, false
	}
	return w.relVar(), true
}

// Quantile returns the q-th quantile of the path's mid-range avail-bw
// estimates over all time (the running digest, eviction-proof). It
// returns NaN for unknown paths and paths with no successful rounds.
func (st *Store) Quantile(path string, q float64) float64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	se := st.series[path]
	if se == nil {
		return math.NaN()
	}
	return se.digest.Quantile(q)
}

// A view is a consistent read of one path's state, taken under a
// single lock acquisition so the export surface never mixes epochs
// (e.g. a retained count newer than the aggregates next to it).
type view struct {
	pts    []Point
	total  uint64
	errs   uint64
	digest Digest // deep copy of the all-time digest
}

// view snapshots one path atomically; ok is false for unknown paths.
func (st *Store) view(path string) (v view, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	se := st.series[path]
	if se == nil {
		return view{}, false
	}
	v = view{pts: se.snapshot(), total: se.total, errs: se.errs}
	v.digest = Digest{size: se.digest.size, n: se.digest.n, cs: append([]centroid(nil), se.digest.cs...)}
	return v, true
}

// Window aggregates the path's retained points with At in [from, to).
func (st *Store) Window(path string, from, to time.Duration) Aggregate {
	return st.aggregate(st.Query(path, from, to))
}

// Retained aggregates everything the path's ring currently holds — the
// store's widest window, and what the scrape surface exports.
func (st *Store) Retained(path string) Aggregate {
	return st.aggregate(st.Snapshot(path))
}

func (st *Store) aggregate(pts []Point) Aggregate {
	return AggregatePoints(pts, st.cfg.DigestSize)
}

// An Aggregate summarizes a window of a path's series: the §VI-B view
// of the avail-bw process over that window.
type Aggregate struct {
	// Count is the number of points in the window; Errors of them
	// failed. All other fields summarize the Count−Errors successful
	// points and are zero when there are none.
	Count, Errors int
	// First and Last are the At offsets of the window's successful
	// extremes.
	First, Last time.Duration
	// MinLo and MaxHi bound the avail-bw variation observed across the
	// window: the widest [Rmin, Rmax] the process visited.
	MinLo, MaxHi float64
	// MeanLo, MeanHi, and MeanMid are arithmetic means of the per-point
	// range bounds and centers.
	MeanLo, MeanHi, MeanMid float64
	// MeanRelVar is the mean per-point relative variation ρ (Eq. 12):
	// the within-measurement variability the paper plots in Figs 11–14.
	MeanRelVar float64
	// RelVar is the windowed relative variation, (MaxHi−MinLo) over
	// the window center (MaxHi+MinLo)/2: how much the avail-bw process
	// moved across the whole window, the paper's long-timescale ρ.
	RelVar float64
	// Digest summarizes the distribution of the per-point mid-range
	// estimates; nil when the window has no successful points.
	Digest *Digest
}

// Quantile returns the q-th quantile of the window's mid-range
// estimates, or NaN for a window with no successful points.
func (a Aggregate) Quantile(q float64) float64 {
	if a.Digest == nil {
		return math.NaN()
	}
	return a.Digest.Quantile(q)
}

// AggregatePoints computes the Aggregate of an arbitrary point slice
// (digestSize as in Config; 0 selects the default). An empty or
// all-failed window yields a zero Aggregate with a nil Digest — the
// empty window is answerable, it just holds no bandwidth information.
func AggregatePoints(pts []Point, digestSize int) Aggregate {
	var a Aggregate
	a.Count = len(pts)
	var w windowSum
	var sumLo, sumHi, sumRho float64
	for _, p := range pts {
		if !p.OK() {
			a.Errors++
			continue
		}
		if w.n == 0 {
			a.First = p.At
			a.Digest = NewDigest(digestSize)
		}
		a.Last = p.At
		w.add(p.Lo, p.Hi)
		sumLo += p.Lo
		sumHi += p.Hi
		sumRho += p.RelVar()
		a.Digest.Add(p.Mid())
	}
	if w.n > 0 {
		n := float64(w.n)
		a.MinLo, a.MaxHi, a.MeanMid, a.RelVar = w.minLo, w.maxHi, w.meanMid(), w.relVar()
		a.MeanLo, a.MeanHi, a.MeanRelVar = sumLo/n, sumHi/n, sumRho/n
	}
	return a
}

// A windowSum accumulates the §VI-B summary of a run of successful points
// one range at a time: the widest [MinLo, MaxHi] visited, the mean
// mid-range estimate and the windowed ρ. AggregatePoints, the scrape
// row and Store.RelVar all feed this one accumulator, so the order of
// the floating-point sums — and with it every rendered byte — is the
// same wherever a window is summarized.
type windowSum struct {
	n            int     // ranges fed
	minLo, maxHi float64 // meaningful once n > 0
	sumMid       float64
}

// add feeds one successful point's range.
func (w *windowSum) add(lo, hi float64) {
	if w.n == 0 {
		w.minLo, w.maxHi = lo, hi
	} else {
		w.minLo = math.Min(w.minLo, lo)
		w.maxHi = math.Max(w.maxHi, hi)
	}
	w.sumMid += (lo + hi) / 2
	w.n++
}

// meanMid is the mean range centre; the caller checks n > 0.
func (w *windowSum) meanMid() float64 { return w.sumMid / float64(w.n) }

// relVar is the windowed relative variation (MaxHi−MinLo) over the
// window centre, 0 for a zero-centre window.
func (w *windowSum) relVar() float64 {
	c := (w.maxHi + w.minLo) / 2
	if c == 0 {
		return 0
	}
	return (w.maxHi - w.minLo) / c
}
