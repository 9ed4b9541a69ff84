package coord

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/tsstore"
	"repro/internal/wire"
)

// Archive record kinds in the coordinator's reserved range
// (0x20–0x2f; see archive.Record).
const (
	// KindContribution records one applied federation push. Key is
	// agent‖NUL‖path; the payload reuses the push wire encoding, so the
	// durable form and the wire form cannot drift apart.
	KindContribution uint8 = 0x20

	// KindLeases records a whole lease-state snapshot; the latest one
	// wins on restore.
	KindLeases uint8 = 0x21
)

// A LeaseSnapshot is the durable image of the lease machine: which
// agents were registered and which conflict group each owner held, at
// a clock reading. Heartbeat ages are deliberately not captured —
// restored agents restart their TTL at the restore clock, which is
// what prevents a mass expiry (and the steal storm it would trigger)
// the moment a restarted coordinator ticks.
type LeaseSnapshot struct {
	Clock  time.Duration
	Agents []string // registered agent names, sorted
	Owners []OwnerGroup
}

// An OwnerGroup is one owned conflict group, identified by its member
// set rather than its index: group indices are an artifact of the path
// table's order, and matching by members is what lets a restart with a
// reordered (but equivalent) configuration keep its leases.
type OwnerGroup struct {
	Paths []string // group members, canonical order
	Owner string
}

// A Persister receives the coordinator's durable state transitions:
// every lease-state change and every applied federation push. Errors
// are reported back so the server can count them, but never stop the
// control plane — the coordinator keeps serving on a sick disk.
type Persister interface {
	SaveLeases(s LeaseSnapshot) error
	SaveContribution(agent, path string, c tsstore.Contribution) error
}

// LeaseSnapshot captures the current lease state at the given clock
// reading.
func (st *State) LeaseSnapshot(now time.Duration) LeaseSnapshot {
	snap := LeaseSnapshot{Clock: now, Agents: st.Agents()}
	for gi, owner := range st.owner {
		if owner == "" {
			continue
		}
		snap.Owners = append(snap.Owners, OwnerGroup{
			Paths: append([]string(nil), st.groups[gi]...),
			Owner: owner,
		})
	}
	return snap
}

// RestoreLeases reinstates a snapshot into a freshly built State:
// every snapshotted agent is registered with its TTL restarted at now,
// and every owned group whose member set still exists in this
// configuration is re-leased to its prior owner. Groups that no longer
// exist (the path table or conflict shape changed) and owners that
// were not restored are dropped with an explicit transcript line —
// never silently re-granted. It returns the transcript lines it
// appended.
func (st *State) RestoreLeases(snap LeaseSnapshot, now time.Duration) []string {
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, st.logf(now, format, args...)) }
	for _, name := range snap.Agents {
		if name == "" {
			continue
		}
		if _, ok := st.agents[name]; !ok {
			st.agents[name] = &agentInfo{lastBeat: now}
			logf("restore %s", name)
		}
	}
	byMembers := map[string]int{}
	for gi, g := range st.groups {
		byMembers[memberKey(g)] = gi
	}
	for _, og := range snap.Owners {
		gi, ok := byMembers[memberKey(og.Paths)]
		if !ok {
			logf("restore drop [%s] -> %s (no matching conflict group)",
				strings.Join(og.Paths, " "), og.Owner)
			continue
		}
		if _, live := st.agents[og.Owner]; !live {
			logf("restore drop %s -> %s (owner not restored)", st.groupName(gi), og.Owner)
			continue
		}
		st.owner[gi] = og.Owner
		logf("restore grant %s -> %s", st.groupName(gi), og.Owner)
	}
	return lines
}

// memberKey canonicalizes a group's member set for matching.
func memberKey(paths []string) string {
	s := append([]string(nil), paths...)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}

// marshalLeaseSnapshot encodes a snapshot (big-endian, proto-style).
func marshalLeaseSnapshot(s LeaseSnapshot) []byte {
	buf := binary.BigEndian.AppendUint64(nil, uint64(s.Clock))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Agents)))
	for _, a := range s.Agents {
		buf = wire.AppendString(buf, a)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Owners)))
	for _, og := range s.Owners {
		buf = wire.AppendString(buf, og.Owner)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(og.Paths)))
		for _, p := range og.Paths {
			buf = wire.AppendString(buf, p)
		}
	}
	return buf
}

func unmarshalLeaseSnapshot(b []byte) (LeaseSnapshot, error) {
	d := wire.NewReader("coord: lease snapshot", b)
	s := LeaseSnapshot{Clock: d.Dur()}
	na := int(d.U32())
	if na > d.Len() {
		return LeaseSnapshot{}, fmt.Errorf("coord: lease snapshot claims %d agents", na)
	}
	for i := 0; i < na && d.Err() == nil; i++ {
		s.Agents = append(s.Agents, d.Str())
	}
	no := int(d.U32())
	if no > d.Len() {
		return LeaseSnapshot{}, fmt.Errorf("coord: lease snapshot claims %d owners", no)
	}
	for i := 0; i < no && d.Err() == nil; i++ {
		og := OwnerGroup{Owner: d.Str()}
		np := int(d.U32())
		if np > d.Len() {
			return LeaseSnapshot{}, fmt.Errorf("coord: owner group claims %d paths", np)
		}
		for j := 0; j < np && d.Err() == nil; j++ {
			og.Paths = append(og.Paths, d.Str())
		}
		s.Owners = append(s.Owners, og)
	}
	return wire.Finish(&d, s)
}

// --- archive-backed persister ----------------------------------------

// coordCkptMagic/-Version frame the coordinator's checkpoint blob
// ("CLCK"): the latest lease snapshot plus the latest contribution per
// (agent, path) among sealed records. Because both record kinds carry
// replace-not-accumulate state, the checkpoint IS the sealed history —
// restore never needs to re-read sealed segments when it is intact.
const (
	coordCkptMagic   uint32 = 0x434c434b
	coordCkptVersion uint16 = 1
)

// Log is the archive-backed Persister: lease snapshots and applied
// contributions stream into an archive.Archive WAL, seal into
// hash-chained segments, and come back on restart via Restore. The
// shadow maps are maintained by the archive's append hook under the
// archive lock, so checkpoints written at seal time summarize exactly
// the records sealed so far.
type Log struct {
	a        *archive.Archive
	contribs map[string][]byte // agent‖NUL‖path → latest push blob
	lease    []byte            // latest lease snapshot blob
}

// LogReport describes what OpenLog recovered.
type LogReport struct {
	archive.OpenReport

	// SealedRecords counts sealed records replayed (0 when an intact
	// checkpoint made replay unnecessary).
	SealedRecords int

	// ForeignRecords counts records of kinds this log does not own
	// (preserved in the archive, ignored here).
	ForeignRecords int

	// CheckpointCorrupt notes that the newest segment's checkpoint
	// failed to decode and recovery fell back to a full sealed replay.
	CheckpointCorrupt bool
}

// OpenLog opens (or creates) the coordinator's durable log at dir.
func OpenLog(dir string, opt archive.Options) (*Log, LogReport, error) {
	l := &Log{contribs: map[string][]byte{}}
	a, rep, err := archive.Open(dir, opt)
	if err != nil {
		return nil, LogReport{}, err
	}
	l.a = a
	out := LogReport{OpenReport: rep}

	seeded := false
	if ck := a.Checkpoint(); len(ck) > 0 {
		seeded = l.decodeCheckpoint(ck) == nil
		out.CheckpointCorrupt = !seeded
	}
	apply := func(r archive.Record) {
		switch r.Kind {
		case KindContribution:
			l.contribs[r.Key] = append([]byte(nil), r.Data...)
		case KindLeases:
			l.lease = append([]byte(nil), r.Data...)
		default:
			out.ForeignRecords++
		}
	}
	if !seeded {
		if err := a.ReplaySealed(func(r archive.Record) error {
			out.SealedRecords++
			apply(r)
			return nil
		}); err != nil {
			a.Close()
			return nil, LogReport{}, err
		}
	}
	if err := a.ReplayTail(func(r archive.Record) error {
		apply(r)
		return nil
	}); err != nil {
		a.Close()
		return nil, LogReport{}, err
	}
	a.SetHooks(l.onAppend, l.checkpoint)
	return l, out, nil
}

// Archive exposes the underlying archive (seal/compact/verify).
func (l *Log) Archive() *archive.Archive { return l.a }

// Close seals nothing and closes the archive; the WAL tail carries the
// unsealed records to the next open.
func (l *Log) Close() error { return l.a.Close() }

// SaveLeases implements Persister.
func (l *Log) SaveLeases(s LeaseSnapshot) error {
	return l.a.Append(archive.Record{Kind: KindLeases, Key: "leases", Data: marshalLeaseSnapshot(s)})
}

// SaveContribution implements Persister.
func (l *Log) SaveContribution(agent, path string, c tsstore.Contribution) error {
	p, err := contributionToPush(path, c)
	if err != nil {
		return err
	}
	return l.a.Append(archive.Record{
		Kind: KindContribution,
		Key:  agent + "\x00" + path,
		Data: marshalPush(p),
	})
}

// onAppend maintains the checkpoint shadow; the archive calls it under
// its lock for every appended record.
func (l *Log) onAppend(r archive.Record) {
	switch r.Kind {
	case KindContribution:
		l.contribs[r.Key] = append([]byte(nil), r.Data...)
	case KindLeases:
		l.lease = append([]byte(nil), r.Data...)
	}
}

// checkpoint encodes the shadow state; the archive calls it under its
// lock at seal time.
func (l *Log) checkpoint() []byte {
	buf := binary.BigEndian.AppendUint32(nil, coordCkptMagic)
	buf = binary.BigEndian.AppendUint16(buf, coordCkptVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(l.lease)))
	buf = append(buf, l.lease...)
	keys := make([]string, 0, len(l.contribs))
	for k := range l.contribs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = wire.AppendString(buf, k)
		blob := l.contribs[k]
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	return buf
}

// decodeCheckpoint seeds the shadow from a checkpoint blob, or leaves
// it untouched and returns an error.
func (l *Log) decodeCheckpoint(b []byte) error {
	d := wire.NewReader("coord: checkpoint", b)
	if d.U32() != coordCkptMagic {
		return fmt.Errorf("coord: not a coordinator checkpoint")
	}
	if v := d.U16(); d.Err() == nil && v != coordCkptVersion {
		return fmt.Errorf("coord: checkpoint version %d unsupported", v)
	}
	lease := append([]byte(nil), d.Bytes()...) // nil when no snapshot was recorded
	n := int(d.U32())
	if n > d.Len() {
		return fmt.Errorf("coord: checkpoint claims %d contributions", n)
	}
	contribs := map[string][]byte{}
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		contribs[k] = append([]byte(nil), d.Bytes()...)
	}
	if err := d.Done(); err != nil {
		return err
	}
	l.lease, l.contribs = lease, contribs
	return nil
}

// A RestoredContribution is one recovered federation entry.
type RestoredContribution struct {
	Agent, Path string
	C           tsstore.Contribution
}

// RestoreState carries recovered coordinator state into NewServer.
type RestoreState struct {
	// Leases is the last persisted snapshot; HaveLeases distinguishes
	// "no snapshot recorded yet" from an empty one.
	Leases     LeaseSnapshot
	HaveLeases bool

	// Contributions are the latest per (agent, path), sorted by agent
	// then path.
	Contributions []RestoredContribution
}

// Restore decodes everything the log recovered into a RestoreState.
// Undecodable entries are dropped with an explicit problem line —
// recovery never invents data and never hides that it dropped some.
func (l *Log) Restore() (RestoreState, []string) {
	var rs RestoreState
	var problems []string
	if l.lease != nil {
		snap, err := unmarshalLeaseSnapshot(l.lease)
		if err != nil {
			problems = append(problems, fmt.Sprintf("lease snapshot dropped: %v", err))
		} else {
			rs.Leases, rs.HaveLeases = snap, true
		}
	}
	keys := make([]string, 0, len(l.contribs))
	for k := range l.contribs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		agent, path, ok := strings.Cut(k, "\x00")
		if !ok || agent == "" || path == "" {
			problems = append(problems, fmt.Sprintf("contribution %q dropped: malformed key", k))
			continue
		}
		p, err := unmarshalPush(l.contribs[k])
		if err == nil && p.Path != path {
			err = fmt.Errorf("payload path %q does not match key path %q", p.Path, path)
		}
		var c tsstore.Contribution
		if err == nil {
			c, err = pushToContribution(p)
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("contribution %s/%s dropped: %v", agent, path, err))
			continue
		}
		rs.Contributions = append(rs.Contributions, RestoredContribution{Agent: agent, Path: path, C: c})
	}
	return rs, problems
}
