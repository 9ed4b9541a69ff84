package coord

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	pathload "repro"
	"repro/internal/schedule"
	"repro/internal/tsstore"
)

// AgentConfig configures a fleet agent (`pathload -agent`).
type AgentConfig struct {
	// Coord is the coordinator's control address (host:port); Dial, when
	// non-nil, replaces net.Dial("tcp", Coord) — tests inject pipes.
	Coord string
	Dial  func() (net.Conn, error)

	// Name is the agent's fleet-unique identity. Required.
	Name string

	// Provider dials the measurement transport for a leased path: it
	// returns the ProberFactory the Monitor will (re)connect through.
	// Required.
	Provider func(path string) (pathload.ProberFactory, error)

	// Monitor is the template for the agent's Monitor: measurement
	// Config, Interval/Jitter/Seed, Workers, Reconnect. The agent owns
	// Rounds (always 0: leases run until revoked), Store (the agent's
	// local tsstore), Scheduler (wrapped in schedule.Budgeted when the
	// coordinator grants a budget), and Admission (a Stagger over
	// co-leased conflict groups).
	Monitor pathload.MonitorConfig

	// Store shapes the agent's local retention (ring capacity, digest
	// budget). Zero value = tsstore defaults. Contributions pushed to
	// the coordinator carry this retained window.
	Store tsstore.Config

	// LocalStore, when non-nil, is used instead of building a fresh
	// store from Store — the seam that lets `pathload -agent -archive`
	// hand the agent an archive-recovered store whose series resume
	// instead of rewinding. The agent takes ownership of writes; the
	// caller keeps read access.
	LocalStore *tsstore.Store

	// Secret is the shared authentication secret. Required when the
	// coordinator is configured with one; must match it.
	Secret string

	// Heartbeat overrides the heartbeat cadence; 0 derives it from the
	// coordinator's hello-ack as min(TTL/3, Epoch).
	Heartbeat time.Duration

	// PushEvery is the contribution push cadence; 0 pushes on every
	// heartbeat.
	PushEvery time.Duration

	// DialBackoff is the wait between failed control dials (default
	// 500 ms, doubling to 15 s).
	DialBackoff time.Duration

	// OnEvent, when non-nil, receives one-line agent life-cycle events
	// (connects, lease changes, push outcomes on failure).
	OnEvent func(line string)
}

// An Agent runs leased paths through a pathload.Monitor and pushes the
// resulting series to its coordinator. The control connection and the
// measurement plane fail independently: a dropped control session is
// re-dialed with backoff while the monitor keeps measuring, and a
// revoked lease stops only the affected paths.
type Agent struct {
	cfg   AgentConfig
	store *tsstore.Store

	stop     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	mon     *pathload.Monitor // current monitor, nil when no leases
	leases  []Lease           // what mon was built from
	budget  float64
	seq     map[string]uint64 // per-path push sequence
	lastTot map[string]uint64 // Totals at last push, for change detection
	monWG   sync.WaitGroup    // drains the current monitor's Results
}

// NewAgent validates cfg and builds the agent; Run drives it.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, errors.New("coord: agent needs a name")
	}
	if cfg.Provider == nil {
		return nil, errors.New("coord: agent needs a path provider")
	}
	if cfg.Dial == nil {
		if cfg.Coord == "" {
			return nil, errors.New("coord: agent needs a coordinator address")
		}
		addr := cfg.Coord
		cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 500 * time.Millisecond
	}
	store := cfg.LocalStore
	if store == nil {
		store = tsstore.New(cfg.Store)
	}
	return &Agent{
		cfg:     cfg,
		store:   store,
		stop:    make(chan struct{}),
		seq:     map[string]uint64{},
		lastTot: map[string]uint64{},
	}, nil
}

// Store exposes the agent's local retention (scrape surface, tests).
func (a *Agent) Store() *tsstore.Store { return a.store }

// Stop asks Run to wind down: the control session closes, the monitor
// stops, and Run returns. Idempotent.
func (a *Agent) Stop() { a.stopOnce.Do(func() { close(a.stop) }) }

func (a *Agent) eventf(format string, args ...any) {
	if a.cfg.OnEvent != nil {
		a.cfg.OnEvent(fmt.Sprintf(format, args...))
	}
}

// Run is the agent main loop: dial the coordinator (with backoff),
// register, then heartbeat/push until the connection breaks, and start
// over — forever, until Stop. It returns nil after Stop.
func (a *Agent) Run() error {
	defer a.stopMonitor()
	backoff := a.cfg.DialBackoff
	for {
		select {
		case <-a.stop:
			return nil
		default:
		}
		registered := false
		err := a.session(&registered)
		if err == nil { // Stop closed the session cleanly
			return nil
		}
		if registered {
			// A session that registered was healthy: the next loss
			// starts the backoff over, however long ago it escalated.
			backoff = a.cfg.DialBackoff
		}
		if errors.Is(err, ErrRejected) {
			// A deliberate, versioned refusal: retrying would hammer a
			// coordinator that already said no.
			a.eventf("giving up: %v", err)
			return err
		}
		a.eventf("control session lost: %v (retry in %v)", err, backoff)
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-a.stop:
			t.Stop()
			return nil
		}
		backoff *= 2
		if max := 15 * time.Second; backoff > max {
			backoff = max
		}
	}
}

// session runs one control connection to completion: nil means Stop
// ended it, any error means dial again. It sets *registered once the
// coordinator's hello-ack is accepted.
func (a *Agent) session(registered *bool) error {
	conn, err := a.cfg.Dial()
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()

	// Stop must be able to cut a session blocked in a read.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-a.stop:
			conn.Close()
		case <-done:
		}
	}()

	if err := writeFrame(conn, msgHello, marshalHello(helloMsg{Min: VersionMin, Max: Version, Name: a.cfg.Name})); err != nil {
		return err
	}
	t, payload, err := readFrame(conn)
	if err != nil {
		return err
	}
	if t == msgChallenge {
		nonce, cerr := unmarshalChallenge(payload)
		if cerr != nil {
			return cerr
		}
		if a.cfg.Secret == "" {
			return fmt.Errorf("%w: coordinator requires a shared secret and this agent has none", ErrRejected)
		}
		if err := writeFrame(conn, msgAuth, marshalAuth(authMAC(a.cfg.Secret, nonce, a.cfg.Name))); err != nil {
			return err
		}
		if t, payload, err = readFrame(conn); err != nil {
			return err
		}
	}
	if t == msgError {
		e, eerr := unmarshalError(payload)
		if eerr != nil {
			return eerr
		}
		return fmt.Errorf("%w: %s (code %d, coordinator speaks v%d)", ErrRejected, e.Text, e.Code, e.Version)
	}
	if t != msgHelloAck {
		return fmt.Errorf("coord: expected hello-ack, got %v", t)
	}
	ack, err := unmarshalHelloAck(payload)
	if err != nil {
		return err
	}
	if _, err := Negotiate(ack.Version, ack.Version); err != nil {
		return err
	}
	*registered = true

	heartbeat := a.cfg.Heartbeat
	if heartbeat <= 0 {
		heartbeat = ack.TTL / 3
		if ack.Epoch > 0 && ack.Epoch < heartbeat {
			heartbeat = ack.Epoch
		}
		if heartbeat <= 0 {
			heartbeat = time.Second
		}
	}
	pushEvery := a.cfg.PushEvery
	if pushEvery <= 0 {
		pushEvery = heartbeat
	}
	a.eventf("registered with %s (ttl %v, heartbeat %v)", conn.RemoteAddr(), ack.TTL, heartbeat)

	hbTick := time.NewTicker(heartbeat)
	defer hbTick.Stop()
	pushTick := time.NewTicker(pushEvery)
	defer pushTick.Stop()

	var hbSeq uint64
	// Beat immediately: the first assign is what starts measuring.
	if err := a.beat(conn, &hbSeq); err != nil {
		return err
	}
	for {
		select {
		case <-a.stop:
			writeFrame(conn, msgBye, nil)
			return nil
		case <-hbTick.C:
			if err := a.beat(conn, &hbSeq); err != nil {
				return err
			}
		case <-pushTick.C:
			if err := a.pushAll(conn); err != nil {
				return err
			}
		}
	}
}

// beat sends one heartbeat and reconciles the assign answer.
func (a *Agent) beat(conn net.Conn, seq *uint64) error {
	*seq++
	if err := writeFrame(conn, msgHeartbeat, marshalHeartbeat(heartbeatMsg{Seq: *seq})); err != nil {
		return err
	}
	t, payload, err := readFrame(conn)
	if err != nil {
		return err
	}
	switch t {
	case msgAssign:
		asg, err := unmarshalAssign(payload)
		if err != nil {
			return err
		}
		return a.reconcile(asg)
	case msgBye:
		// The coordinator expired us; re-register on a fresh session.
		return errors.New("coord: coordinator expired this agent")
	default:
		return fmt.Errorf("coord: expected assign, got %v", t)
	}
}

// pushAll pushes a contribution for every path whose series changed
// since the last push, in sorted order, over the strict
// request/response session.
func (a *Agent) pushAll(conn net.Conn) error {
	a.mu.Lock()
	paths := a.store.Paths() // sorted by the store
	type upd struct {
		path string
		c    tsstore.Contribution
	}
	var updates []upd
	for _, p := range paths {
		total, errs := a.store.Totals(p)
		if total == a.lastTot[p] {
			continue
		}
		a.seq[p]++
		c := tsstore.Contribution{
			Seq:    a.seq[p],
			Total:  total,
			Errors: errs,
			Points: a.store.Snapshot(p),
			Digest: a.store.DigestSnapshot(p),
		}
		a.lastTot[p] = total
		updates = append(updates, upd{p, c})
	}
	a.mu.Unlock()

	for _, u := range updates {
		msg, err := contributionToPush(u.path, u.c)
		if err != nil {
			a.eventf("push %s: %v", u.path, err)
			continue
		}
		if err := writeFrame(conn, msgPush, marshalPush(msg)); err != nil {
			return err
		}
		t, payload, err := readFrame(conn)
		if err != nil {
			return err
		}
		if t == msgBye {
			return errors.New("coord: coordinator expired this agent")
		}
		if t != msgPushAck {
			return fmt.Errorf("coord: expected push-ack, got %v", t)
		}
		if _, err := unmarshalPushAck(payload); err != nil {
			return err
		}
	}
	return nil
}

// sameLeases reports whether two lease sets are identical up to order.
func sameLeases(a, b []Lease) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(ls []Lease) []string {
		out := make([]string, len(ls))
		for i, l := range ls {
			out[i] = fmt.Sprintf("%d\x00%s", l.Group, l.Path)
		}
		sort.Strings(out)
		return out
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// reconcile applies an assignment: when the lease set or budget
// changed, the current monitor is stopped and a new one started over
// the new leases, resuming each path's round/clock counters from the
// local store so the series stay monotone.
func (a *Agent) reconcile(asg assignMsg) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	leases := asg.Leases
	if sameLeases(a.leases, leases) && a.budget == asg.Budget {
		return nil
	}
	a.stopMonitorLocked()
	a.leases = append([]Lease(nil), leases...)
	a.budget = asg.Budget
	if len(leases) == 0 {
		a.eventf("leases revoked; idle")
		return nil
	}

	cfg := a.cfg.Monitor
	cfg.Rounds = 0
	cfg.Store = a.store
	if asg.Budget > 0 {
		inner := cfg.Scheduler
		if inner == nil {
			inner = &schedule.Fixed{Interval: cfg.Interval, Jitter: cfg.Jitter, Seed: cfg.Seed}
		}
		cfg.Scheduler = &schedule.Budgeted{Inner: inner, Rate: asg.Budget}
	}
	// Paths sharing a conflict group must stagger locally — that is the
	// contract that lets the coordinator lease whole groups.
	byGroup := map[int][]string{}
	for _, l := range leases {
		byGroup[l.Group] = append(byGroup[l.Group], l.Path)
	}
	if conflicts := schedule.GroupConflicts(slices.Collect(maps.Values(byGroup))); conflicts != nil {
		cfg.Admission = schedule.NewStagger(conflicts, cfg.Workers)
	}

	mon, err := pathload.NewMonitor(cfg)
	if err != nil {
		return fmt.Errorf("coord: building monitor: %w", err)
	}
	sorted := append([]Lease(nil), leases...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	var names []string
	for _, l := range sorted {
		factory, err := a.cfg.Provider(l.Path)
		if err != nil {
			return fmt.Errorf("coord: provider for %q: %w", l.Path, err)
		}
		if err := mon.AddPathFactory(l.Path, factory); err != nil {
			return err
		}
		names = append(names, l.Path)
	}
	if err := mon.Start(); err != nil {
		return err
	}
	a.mon = mon
	// The Results channel must drain or sessions block; the store is
	// the sink of record, so the live stream is just discarded.
	results := mon.Results()
	a.monWG.Add(1)
	go func() {
		defer a.monWG.Done()
		for range results {
		}
	}()
	a.eventf("measuring %v (budget %.0f)", names, asg.Budget)
	return nil
}

// stopMonitor stops the current monitor (if any) and waits for it.
func (a *Agent) stopMonitor() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stopMonitorLocked()
}

func (a *Agent) stopMonitorLocked() {
	if a.mon == nil {
		return
	}
	a.mon.Stop()
	a.mon.Wait()
	a.mon = nil
	a.monWG.Wait()
}
