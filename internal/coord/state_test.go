package coord

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// stateConfig is the fixture most state tests share: six paths, two
// two-path conflict groups and two singletons, 5s TTL.
func stateConfig() Config {
	return Config{
		Paths: []string{"p00", "p01", "p02", "p03", "p04", "p05"},
		Conflicts: map[string][]string{
			"p00": {"p01"},
			"p02": {"p03"},
		},
		TTL:    5 * time.Second,
		Epoch:  2 * time.Second,
		Budget: 12e6,
	}
}

// op is one scripted step of a lease state machine table case.
type op struct {
	at       time.Duration
	register string
	beat     string
	tick     bool
	// wantLines, when non-nil, must equal the tick's transcript output
	// exactly (grant/steal/expire decisions at exact TTL ticks).
	wantLines []string
	// wantOwners, when non-nil, is checked after the step: group index
	// → owner.
	wantOwners map[int]string
	// wantBeatErr expects the beat to fail with ErrUnknownAgent.
	wantBeatErr bool
}

// TestLeaseStateMachine is the table-driven coverage of grant, renew,
// expire, steal, and reassignment-after-death — each at exact clock
// ticks, since Tick is the only lease mutator and expiry is defined as
// now − lastBeat ≥ TTL.
func TestLeaseStateMachine(t *testing.T) {
	const s = time.Second
	cases := []struct {
		name string
		ops  []op
	}{
		{
			name: "first agent gets everything",
			ops: []op{
				{at: 0, register: "a1"},
				{at: 0, tick: true, wantLines: []string{
					"0s grant g0[p00 p01] -> a1",
					"0s grant g1[p02 p03] -> a1",
					"0s grant g2[p04] -> a1",
					"0s grant g3[p05] -> a1",
				}, wantOwners: map[int]string{0: "a1", 1: "a1", 2: "a1", 3: "a1"}},
			},
		},
		{
			name: "second agent steals down to balance, third rebalances again",
			ops: []op{
				{at: 0, register: "a1"},
				{at: 0, tick: true},
				{at: 1 * s, register: "a2"},
				// a1 holds 6 paths, a2 zero. Moving g0 (size 2) needs
				// 6−0 > 2: yes. Then 4 vs 2: moving g1 (size 2) needs
				// 4−2 > 2: no — legal imbalance left alone, but the
				// singleton g2 (4−2 > 1) still moves.
				{at: 1 * s, tick: true, wantLines: []string{
					"1s steal g0[p00 p01] a1 -> a2",
					"1s steal g2[p04] a1 -> a2",
				}, wantOwners: map[int]string{0: "a2", 1: "a1", 2: "a2", 3: "a1"}},
				{at: 2 * s, register: "a3"},
				// Loads 3/3/0 (ties pick the smallest name): a1's g1
				// (size 2, 3−0 > 2) moves to a3. Then 1/3/2: a2's g0
				// (size 2, 3−1 > 2 fails) stays but its g2 (size 1,
				// 2 > 1) moves to a1. Then 2/2/2: balanced, stop.
				{at: 2 * s, tick: true, wantLines: []string{
					"2s steal g1[p02 p03] a1 -> a3",
					"2s steal g2[p04] a2 -> a1",
				}, wantOwners: map[int]string{0: "a2", 1: "a3", 2: "a1", 3: "a1"}},
			},
		},
		{
			name: "renewal holds leases at the TTL boundary, silence loses them",
			ops: []op{
				{at: 0, register: "a1"},
				{at: 0, register: "a2"},
				{at: 0, tick: true, wantOwners: map[int]string{0: "a1", 1: "a2", 2: "a1", 3: "a2"}},
				{at: 4 * s, beat: "a1"},
				// a2's last beat was 0s; at 4.999…s it is still live
				// (strict ≥ TTL), at exactly 5s it is dead.
				{at: 5*s - time.Nanosecond, tick: true, wantLines: []string{}},
				{at: 5 * s, tick: true, wantLines: []string{
					"5s expire a2 (last heartbeat 0s)",
					"5s grant g1[p02 p03] -> a1",
					"5s grant g3[p05] -> a1",
				}, wantOwners: map[int]string{0: "a1", 1: "a1", 2: "a1", 3: "a1"}},
				// The expired agent's beats now fail until it re-registers.
				{at: 5 * s, beat: "a2", wantBeatErr: true},
				{at: 5 * s, register: "a2"},
				{at: 5 * s, beat: "a2"},
			},
		},
		{
			name: "dead agent's groups reassign within one tick",
			ops: []op{
				{at: 0, register: "a1"},
				{at: 0, register: "a2"},
				{at: 0, register: "a3"},
				{at: 0, tick: true, wantOwners: map[int]string{0: "a1", 1: "a2", 2: "a3", 3: "a3"}},
				{at: 4 * s, beat: "a1"},
				{at: 4 * s, beat: "a3"},
				// a2 dies; the very next tick both expires it and
				// re-grants its group (to the least-loaded live agent,
				// tie → a1) — reassignment never needs a second epoch.
				{at: 6 * s, tick: true, wantLines: []string{
					"6s expire a2 (last heartbeat 0s)",
					"6s grant g1[p02 p03] -> a1",
				}, wantOwners: map[int]string{0: "a1", 1: "a1", 2: "a3", 3: "a3"}},
			},
		},
		{
			name: "all agents dead parks every lease",
			ops: []op{
				{at: 0, register: "a1"},
				{at: 0, tick: true},
				{at: 10 * s, tick: true, wantLines: []string{
					"10s expire a1 (last heartbeat 0s)",
				}, wantOwners: map[int]string{0: "", 1: "", 2: "", 3: ""}},
				{at: 11 * s, register: "a2"},
				{at: 11 * s, tick: true, wantOwners: map[int]string{0: "a2", 1: "a2", 2: "a2", 3: "a2"}},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewState(stateConfig())
			if err != nil {
				t.Fatalf("NewState: %v", err)
			}
			for i, o := range tc.ops {
				switch {
				case o.register != "":
					if err := st.Register(o.register, o.at); err != nil {
						t.Fatalf("op %d: Register(%s): %v", i, o.register, err)
					}
				case o.beat != "":
					_, err := st.Heartbeat(o.beat, o.at)
					if o.wantBeatErr != (err != nil) {
						t.Fatalf("op %d: Heartbeat(%s) err = %v, want error %v", i, o.beat, err, o.wantBeatErr)
					}
					if err != nil && !errors.Is(err, ErrUnknownAgent) {
						t.Fatalf("op %d: Heartbeat(%s) err = %v, want ErrUnknownAgent", i, o.beat, err)
					}
				case o.tick:
					lines := st.Tick(o.at)
					if o.wantLines != nil && !reflect.DeepEqual(lines, o.wantLines) && !(len(lines) == 0 && len(o.wantLines) == 0) {
						t.Fatalf("op %d: Tick(%v) transcript:\n%s\nwant:\n%s",
							i, o.at, strings.Join(lines, "\n"), strings.Join(o.wantLines, "\n"))
					}
				}
				if o.wantOwners != nil {
					for gi, want := range o.wantOwners {
						got := st.owner[gi]
						if got != want {
							t.Fatalf("op %d: group %d owner = %q, want %q", i, gi, got, want)
						}
					}
				}
			}
		})
	}
}

// TestLeaseNoDoubleGrant: across an adversarial schedule of churn, no
// path is ever owned by two agents, every owner is live, and all paths
// are owned whenever any agent is live — the invariants that make a
// lease a lease.
func TestLeaseNoDoubleGrant(t *testing.T) {
	st, err := NewState(stateConfig())
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	const s = time.Second
	names := []string{"a1", "a2", "a3", "a4"}
	for step := 0; step < 200; step++ {
		now := time.Duration(step) * s / 2
		// A deterministic but uneven schedule: agents register, beat at
		// different cadences, and drop out when their index bit pattern
		// says so.
		for i, n := range names {
			if step%(i+2) == 0 {
				if _, err := st.Heartbeat(n, now); err != nil {
					st.Register(n, now)
				}
			}
		}
		st.Tick(now)

		// Double-grant impossibility: the union of every live agent's
		// assignment must cover each path exactly once, agreeing with
		// Owner; dead agents must hold nothing.
		live := map[string]bool{}
		holders := map[string][]string{}
		for _, a := range st.Agents() {
			live[a] = true
			for _, l := range st.Assignment(a).Leases {
				holders[l.Path] = append(holders[l.Path], a)
			}
		}
		for _, p := range stateConfig().Paths {
			hs := holders[p]
			if len(hs) > 1 {
				t.Fatalf("step %d: path %s leased to %v simultaneously", step, p, hs)
			}
			o := st.Owner(p)
			if o == "" {
				if len(live) > 0 {
					t.Fatalf("step %d: path %s unowned while %d agents live", step, p, len(live))
				}
				continue
			}
			if !live[o] {
				t.Fatalf("step %d: path %s owned by dead agent %s", step, p, o)
			}
			if len(hs) != 1 || hs[0] != o {
				t.Fatalf("step %d: path %s holders %v disagree with owner %s", step, p, hs, o)
			}
		}
		// Conflict groups travel whole: members share one owner.
		for _, g := range st.Groups() {
			o := st.Owner(g[0])
			for _, p := range g[1:] {
				if st.Owner(p) != o {
					t.Fatalf("step %d: group %v split between %s and %s", step, g, o, st.Owner(p))
				}
			}
		}
	}
}

// TestLeaseBudgetShares: budget splits by leased-path count and sums
// to the configured fleet budget when everything is leased.
func TestLeaseBudgetShares(t *testing.T) {
	st, err := NewState(stateConfig())
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	st.Register("a1", 0)
	st.Register("a2", 0)
	st.Tick(0)
	var sum float64
	for _, a := range st.Agents() {
		asg := st.Assignment(a)
		want := 12e6 * float64(len(asg.Leases)) / 6
		if asg.Budget != want {
			t.Fatalf("agent %s budget = %v, want %v", a, asg.Budget, want)
		}
		sum += asg.Budget
	}
	if sum != 12e6 {
		t.Fatalf("budget shares sum to %v, want 12e6", sum)
	}
}

// TestStateValidation: duplicate and empty paths, and empty tables,
// are construction-time errors.
func TestStateValidation(t *testing.T) {
	if _, err := NewState(Config{}); err == nil {
		t.Fatalf("empty path table accepted")
	}
	if _, err := NewState(Config{Paths: []string{"a", "a"}}); err == nil {
		t.Fatalf("duplicate path accepted")
	}
	if _, err := NewState(Config{Paths: []string{"a", ""}}); err == nil {
		t.Fatalf("empty path name accepted")
	}
	if err := func() error {
		st, _ := NewState(Config{Paths: []string{"a"}})
		return st.Register("", 0)
	}(); err == nil {
		t.Fatalf("empty agent name accepted")
	}
}

// TestTranscriptIsBounded: an agent that flaps for as long as the
// coordinator lives writes decision lines forever; the state keeps the
// newest transcriptCap of them, in order, and counts the rest.
func TestTranscriptIsBounded(t *testing.T) {
	st, err := NewState(Config{Paths: []string{"p"}, TTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Every written line, as the callers saw it: Tick returns its own,
	// Register's is the newest.
	var want []string
	now := time.Duration(0)
	for tick := 0; tick < 100_000; tick += 2 {
		if err := st.Register("flap", now); err != nil {
			t.Fatal(err)
		}
		want = append(want, st.lastLine())
		want = append(want, st.Tick(now)...) // grant
		now += time.Second
		want = append(want, st.Tick(now)...) // expire
	}
	if len(want) != 150_000 || st.logged != len(want) {
		t.Fatalf("wrote %d lines, state counted %d, want 150000", len(want), st.logged)
	}
	if len(st.log) != transcriptCap || cap(st.log) > 2*transcriptCap {
		t.Fatalf("retained log has len %d cap %d, want len %d", len(st.log), cap(st.log), transcriptCap)
	}
	if got := st.Transcript(); !reflect.DeepEqual(got, want[len(want)-transcriptCap:]) {
		t.Fatalf("Transcript() is not the newest %d lines in order: starts %q, ends %q; want %q … %q",
			transcriptCap, got[0], got[len(got)-1], want[len(want)-transcriptCap], want[len(want)-1])
	}
	if st.lastLine() != want[len(want)-1] {
		t.Fatalf("lastLine() = %q, want %q", st.lastLine(), want[len(want)-1])
	}
}
