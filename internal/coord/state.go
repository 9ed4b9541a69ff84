package coord

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/schedule"
)

// Default timing for the lease machinery: an agent is dead after TTL
// without a heartbeat, and the coordinator reconsiders the assignment
// every Epoch.
const (
	DefaultTTL   = 10 * time.Second
	DefaultEpoch = 2 * time.Second
)

// ErrUnknownAgent reports a heartbeat (or push) from an agent the
// coordinator does not consider registered — typically one expired
// while its control connection limped. The agent's remedy is to
// re-register.
var ErrUnknownAgent = errors.New("coord: unknown agent")

// Config declares the measurement work the coordinator owns.
type Config struct {
	// Paths are the path identifiers to keep measured, fleet-wide.
	Paths []string

	// Conflicts is the link-sharing adjacency over Paths (the shape
	// mesh.TightOverlaps produces): paths connected through it must
	// never measure concurrently. The coordinator leases whole conflict
	// groups, never fragments of one, so the owning agent's local
	// Stagger policy can serialize them — cross-agent staggering would
	// need a distributed lock this plane deliberately avoids.
	Conflicts map[string][]string

	// TTL is how long an agent stays live past its last heartbeat;
	// 0 selects DefaultTTL.
	TTL time.Duration

	// Epoch is the rebalance cadence; 0 selects DefaultEpoch. Purely
	// advisory inside State (Tick decides by the clock it is handed) but
	// reported to agents in the hello handshake.
	Epoch time.Duration

	// Budget is the fleet-wide probe-bit budget in bits/s, split across
	// agents in proportion to how many paths they hold — the
	// schedule.Budgeted share rule lifted to the control plane. 0 means
	// uncapped.
	Budget float64
}

// A Lease is one granted path together with its conflict group index,
// so the holder knows which co-leased paths must stagger.
type Lease struct {
	Path  string
	Group int
}

// An Assignment is everything an agent needs to act on its leases: the
// full lease set (idempotent reconciliation target, not a delta) and
// the agent's probe-bit budget share.
type Assignment struct {
	Leases []Lease
	Budget float64
}

// agentInfo is the coordinator's book on one registered agent.
type agentInfo struct {
	lastBeat time.Duration
}

// State is the lease state machine: who is alive, which conflict group
// is leased to whom, and the decision log. It is deliberately inert —
// nothing mutates leases except Tick, every method takes the clock as
// an argument, and all iteration is in canonical (sorted) order — so a
// scripted clock replays the exact grant/steal/expire transcript every
// run, which is what the multi-agent harness pins byte-for-byte.
//
// State is not safe for concurrent use; Server wraps it in a mutex.
type State struct {
	cfg    Config
	groups [][]string     // conflict groups, canonical order (schedule.ConflictGroups)
	group  map[string]int // path → index into groups
	agents map[string]*agentInfo
	owner  []string // groups[i] is leased to owner[i]; "" = unowned
	// log is a ring of the newest transcriptCap decision lines and
	// logged the all-time line count: line i (from 0) sits at
	// log[i%transcriptCap] until line i+transcriptCap overwrites it.
	log    []string
	logged int
}

// transcriptCap bounds the decision log a State retains. A flapping
// agent writes lines for as long as the coordinator lives; the status
// page and Transcript only ever want the recent ones.
const transcriptCap = 4096

// NewState builds the state machine for cfg, partitioning cfg.Paths
// into conflict groups. It errors on duplicate or empty path names —
// a duplicate would silently double-measure — and on an empty path
// table.
func NewState(cfg Config) (*State, error) {
	if len(cfg.Paths) == 0 {
		return nil, errors.New("coord: no paths configured")
	}
	seen := map[string]bool{}
	for _, p := range cfg.Paths {
		if p == "" {
			return nil, errors.New("coord: empty path name")
		}
		if seen[p] {
			return nil, fmt.Errorf("coord: duplicate path %q", p)
		}
		seen[p] = true
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = DefaultEpoch
	}
	st := &State{
		cfg:    cfg,
		groups: schedule.ConflictGroups(cfg.Paths, cfg.Conflicts),
		group:  map[string]int{},
		agents: map[string]*agentInfo{},
	}
	st.owner = make([]string, len(st.groups))
	for gi, g := range st.groups {
		for _, p := range g {
			st.group[p] = gi
		}
	}
	return st, nil
}

// Configured reports whether path is one of Config.Paths: every one,
// and nothing else, is in exactly one conflict group. The groups are
// fixed at construction, so it needs no lock.
func (st *State) Configured(path string) bool {
	_, ok := st.group[path]
	return ok
}

// Groups returns the conflict groups in canonical order (shared
// slices; callers must not mutate).
func (st *State) Groups() [][]string { return st.groups }

// TTL and Epoch report the effective timing after defaulting.
func (st *State) TTL() time.Duration   { return st.cfg.TTL }
func (st *State) Epoch() time.Duration { return st.cfg.Epoch }

// Register adds (or refreshes) an agent at the given clock reading.
// Re-registering a live agent just renews its heartbeat — its leases
// survive, so an agent healing a dropped control connection does not
// churn the assignment.
func (st *State) Register(name string, now time.Duration) error {
	if name == "" {
		return errors.New("coord: empty agent name")
	}
	if a, ok := st.agents[name]; ok {
		a.lastBeat = now
		st.logf(now, "re-register %s", name)
		return nil
	}
	st.agents[name] = &agentInfo{lastBeat: now}
	st.logf(now, "register %s", name)
	return nil
}

// Heartbeat renews the agent's TTL and returns its current assignment.
// ErrUnknownAgent means the coordinator expired the agent; it must
// register again before its beats count.
func (st *State) Heartbeat(name string, now time.Duration) (Assignment, error) {
	a, ok := st.agents[name]
	if !ok {
		return Assignment{}, fmt.Errorf("%w: %q", ErrUnknownAgent, name)
	}
	a.lastBeat = now
	return st.Assignment(name), nil
}

// Assignment returns the agent's current leases and budget share. An
// unknown agent gets an empty assignment.
func (st *State) Assignment(name string) Assignment {
	var asg Assignment
	for gi, owner := range st.owner {
		if owner != name {
			continue
		}
		for _, p := range st.groups[gi] {
			asg.Leases = append(asg.Leases, Lease{Path: p, Group: gi})
		}
	}
	if st.cfg.Budget > 0 && len(asg.Leases) > 0 {
		asg.Budget = st.cfg.Budget * float64(len(asg.Leases)) / float64(len(st.cfg.Paths))
	}
	return asg
}

// Owner returns the agent currently leasing the path ("" when none).
func (st *State) Owner(path string) string {
	gi, ok := st.group[path]
	if !ok {
		return ""
	}
	return st.owner[gi]
}

// Agents returns the registered (not yet expired) agent names, sorted.
func (st *State) Agents() []string {
	out := make([]string, 0, len(st.agents))
	for a := range st.agents {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Tick advances the lease machine to the given clock reading — the one
// place leases change. In order:
//
//  1. Expire agents whose last heartbeat is TTL or more in the past
//     (processed in sorted name order), releasing their groups.
//  2. Grant unowned groups, in canonical group order, each to the
//     live agent with the fewest leased paths (ties to the
//     lexicographically smallest name).
//  3. Steal-balance: while some agent M holds so much more than the
//     least-loaded agent L that moving M's first (canonical) group g
//     with load(M) − load(L) > len(g) helps, move it. The condition
//     makes every move strictly decrease Σ load² — the potential
//     argument that guarantees termination — and leaves perfectly
//     legal imbalances (e.g. 2 vs 1 singleton groups) alone rather
//     than thrashing.
//
// It returns the transcript lines this tick appended, in order.
func (st *State) Tick(now time.Duration) []string {
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, st.logf(now, format, args...)) }

	// 1. Expirations.
	for _, name := range st.Agents() {
		a := st.agents[name]
		if now-a.lastBeat < st.cfg.TTL {
			continue
		}
		logf("expire %s (last heartbeat %v)", name, a.lastBeat)
		delete(st.agents, name)
		for gi, owner := range st.owner {
			if owner == name {
				st.owner[gi] = ""
			}
		}
	}

	live := st.Agents()
	if len(live) > 0 {
		// 2. Grants.
		for gi, owner := range st.owner {
			if owner != "" {
				continue
			}
			target := st.leastLoaded(live)
			st.owner[gi] = target
			logf("grant %s -> %s", st.groupName(gi), target)
		}

		// 3. Steal-balancing.
		for {
			moved := false
			maxName, maxLoad := "", -1
			minName, minLoad := "", int(^uint(0)>>1)
			for _, name := range live {
				l := st.load(name)
				if l > maxLoad || (l == maxLoad && name < maxName) {
					maxName, maxLoad = name, l
				}
				if l < minLoad || (l == minLoad && name < minName) {
					minName, minLoad = name, l
				}
			}
			if maxName == minName {
				break
			}
			for gi, owner := range st.owner {
				if owner != maxName {
					continue
				}
				if maxLoad-minLoad > len(st.groups[gi]) {
					st.owner[gi] = minName
					logf("steal %s %s -> %s", st.groupName(gi), maxName, minName)
					moved = true
					break
				}
			}
			if !moved {
				break
			}
		}
	}

	return lines
}

// load counts the paths (not groups) leased to the agent — the unit
// budget shares are denominated in.
func (st *State) load(name string) int {
	n := 0
	for gi, owner := range st.owner {
		if owner == name {
			n += len(st.groups[gi])
		}
	}
	return n
}

// leastLoaded picks the grant target among live (sorted) agents:
// fewest leased paths, ties to the smallest name (live's order).
func (st *State) leastLoaded(live []string) string {
	best, bestLoad := live[0], st.load(live[0])
	for _, name := range live[1:] {
		if l := st.load(name); l < bestLoad {
			best, bestLoad = name, l
		}
	}
	return best
}

// groupName renders a group for the transcript: g<idx>[members...].
func (st *State) groupName(gi int) string {
	return fmt.Sprintf("g%d[%s]", gi, strings.Join(st.groups[gi], " "))
}

// logf writes one clock-stamped transcript line, over the oldest once
// the ring is full, and returns it.
func (st *State) logf(now time.Duration, format string, args ...any) string {
	line := fmt.Sprintf("%v %s", now, fmt.Sprintf(format, args...))
	if len(st.log) < transcriptCap {
		st.log = append(st.log, line)
	} else {
		st.log[st.logged%transcriptCap] = line
	}
	st.logged++
	return line
}

// lastLine returns the newest transcript line; there must be one.
func (st *State) lastLine() string {
	return st.log[(st.logged-1)%len(st.log)]
}

// Transcript returns the decision log, oldest line first: everything
// since construction, or the newest transcriptCap lines once there
// have been more.
func (st *State) Transcript() []string {
	n := len(st.log)
	if n == 0 {
		return nil
	}
	oldest := st.logged % n // 0 until the ring has wrapped
	return append(append(make([]string, 0, n), st.log[oldest:]...), st.log[:oldest]...)
}
