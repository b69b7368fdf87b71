package world

// Checkpointable worlds. Snapshot captures every piece of state a run's
// future outputs can observe — peers and their opinion books, the
// overlay membership, score-manager stores, the lending protocol, the
// topology selector, every random stream, the pending event queue,
// the sampling accumulators and the placement cache — in a versioned,
// deterministic encoding: the same world always serializes to the same
// bytes, and a restored world continues byte-identically to the
// uninterrupted run.
//
// Three disciplines make that hold:
//
//   - Map-backed state is flattened into sorted slices (or captured in
//     an explicitly recorded order where the order itself is state: the
//     admission list, the dirty-reputation queue, the placement-index
//     slices), so encoding never iterates a Go map.
//
//   - Pending events are data: a kind, registered once with its handler
//     (newBare and lending.New), and a typed payload. A checkpoint
//     stores (kind name, seq, payload), and the restore re-queues each
//     record under the handler registered for its name, at its original
//     sequence number, so intra-tick FIFO order is preserved.
//
//   - Caches that are pure functions of captured state (ring structure,
//     signature memos, store placeholder slots) are rebuilt. The
//     placement cache and its owner index feed deterministic iteration
//     through their layout, so they are captured by walk and index
//     order, not verbatim: a placement as the walk that filled it (which
//     replica keys it consulted, and after which a clockwise skip arc
//     followed), since each arc's key and owner are what the peer's ID
//     and the ring give; an owner's index list in its exact order, stale
//     slots included.

import (
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/lending"
	"repro/internal/metrics"
	"repro/internal/peer"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// SnapshotVersion is the world snapshot format version. Incompatible
// changes to the Snapshot document bump it; Restore rejects any other
// version. Version 2 added the workload layer: two more random streams,
// the replay cursor, and per-peer cohort/plan state. Version 3 added the
// telemetry-era observability state: the duration histograms inside
// Metrics and the in-flight arrival ticks behind the admission-latency
// histogram. Version 4 added the arena memory layout's ordinal table and
// free-list. Version 5 moved the body to the binary checkpoint codec,
// with typed event payloads in EventRecord. Version 6 dropped the lending
// protocol's departed-signer tombstones. Version 7 dropped what no
// resumed run can observe: the arena's ordinal table and free-list (a
// restored world numbers its slots in restore order), the "delta" event
// kind nothing schedules, the event name that repeated its kind, the
// placement index's slot count (the sum of its slices' lengths) and the
// null-identity markers (a departed peer without a signer is null).
// Version 8 writes each peer once: live and departed peers share one
// table, each record carrying its signing identity, so the departed table
// and the lending protocol's signer table are gone, and score managers
// keep no lend or reward nonce history. Version 9 folds every table whose
// state only a live peer holds (stores, crash flags, sampled reputations,
// in-flight arrivals, placements and owner-index lists) into the peer's
// record, writes a placement as its walk alone, and writes no empty
// score-manager record.
const SnapshotVersion = 9

// Event payload types. Each pending-event kind the world schedules but
// "transaction" and "sample" carries one, pinning everything its handler
// needs; EventRecord stores it as is.
type (
	// genPayload tags the self-rescheduling Poisson chains ("arrival",
	// "departure") with the process generation they were armed under.
	genPayload struct {
		Gen int64
	}
	// peerPayload tags events bound to one peer ("stake-timeout",
	// "rejoin").
	peerPayload struct {
		Peer id.ID
	}
	// sessionPayload tags events guarded by an admission time
	// ("session-end", "stake-expiry", "lease-expiry").
	sessionPayload struct {
		Peer   id.ID
		Joined sim.Tick
	}
	// replayPayload tags the pending event of the trace-replay chain
	// ("wk-replay") with the index of the trace event it re-drives.
	replayPayload struct {
		Idx int64
	}
)

// EventRecord is one pending event: its firing tick, original sequence
// number (intra-tick FIFO position), kind and typed payload. Exactly the
// payload field of Kind is set; "transaction" and "sample" events carry
// none.
type EventRecord struct {
	At   sim.Tick
	Seq  int64
	Kind string

	Gen     *genPayload
	Peer    *peerPayload
	Session *sessionPayload
	Intro   *lending.IntroWait
	Replay  *replayPayload
}

// PeerRecord is one peer object — live, or departed but eligible to
// rejoin — with the signing identity it holds or left under: a nil
// Signer is the null identity. The fields after Opinions hold state only
// a live peer has, so a departed record carries none of them.
type PeerRecord struct {
	ID          id.ID
	Departed    bool
	Signer      *transport.SignerState
	Class       peer.Class
	Style       peer.Style
	JoinedAt    sim.Tick
	Completed   int
	Audited     bool
	Introducer  id.ID
	DefectAt    sim.Tick
	Cohort      string
	PlanOrdinal int64
	PlanSeq     int64
	Plan        *workload.Plan
	Opinions    []rocq.PartnerRecord

	// Crashed is the node's crash flag on the bus. Arrival is the tick an
	// in-flight arrival asked for an introduction, so a resumed run
	// observes the admission latency the uncut run would; nil outside
	// the waiting period. Rep is the peer's term in the sampled
	// cooperative sum, zero unless it is an admitted cooperative peer.
	// Store is the reputation store its node hosts.
	Crashed bool
	Arrival *sim.Tick
	Rep     float64
	Store   *rocq.StoreState
	// Walk is the peer's cached placement as the walk that filled it: one
	// flag per replica key the placement consulted, set where a clockwise
	// skip arc follows that replica's arc; empty when nothing is cached.
	// Restore re-derives each arc, its managers and its padded mark.
	// Index is the owner index at the peer's node: the peers whose cached
	// placements recorded it as an arc owner, in its exact order, stale
	// slots included, since scan order feeds the dirty-marking sequence.
	Walk  []bool
	Index []id.ID
}

// live reports whether the record carries any state only a live peer
// holds.
func (r *PeerRecord) live() bool {
	return r.Crashed || r.Arrival != nil || r.Rep != 0 || r.Store != nil || len(r.Walk) > 0 || len(r.Index) > 0
}

// RandState is the position of every random stream the world owns
// directly (the topology selector's stream travels inside its own
// state; signer streams inside the lending state).
type RandState struct {
	Arrival   [4]uint64
	Workload  [4]uint64
	Behave    [4]uint64
	Key       [4]uint64
	Churn     [4]uint64
	WkArrival [4]uint64
	Cohort    [4]uint64
}

// Snapshot is the versioned, serializable state of a started world.
type Snapshot struct {
	Version int
	Config  config.Config
	Policy  string

	Now     sim.Tick
	NextSeq int64
	Events  []EventRecord

	Rand RandState

	Seq          int64
	ArrClock     float64
	ArrivalGen   int64
	DepartClk    float64
	DepartGen    int64
	WkReplayNext int64

	Peers    []PeerRecord // every live or departed peer, ascending ID
	Admitted []id.ID      // members in admission order
	// Wiped names every peer whose record was wiped out, forgotten peers
	// included, so it is a table of its own.
	Wiped []id.ID // ascending ID

	Topology topology.State
	Lending  lending.State
	BusStats transport.Stats

	RepSum   float64
	DirtyRep []id.ID // insertion order, verbatim

	Metrics Metrics
}

// Snapshot captures the world's full state. The world must be started
// and healthy; the world itself is not modified and may keep running
// (the snapshot shares nothing with it).
func (w *World) Snapshot() (*Snapshot, error) {
	defer w.spans.Start("snapshot-encode")()
	switch {
	case !w.started:
		return nil, fmt.Errorf("world: cannot snapshot before Start")
	case w.err != nil:
		return nil, fmt.Errorf("world: cannot snapshot a failed world: %w", w.err)
	}
	s := &Snapshot{
		Version: SnapshotVersion,
		Config:  w.cfg,
		Policy:  w.policy.Name(),
		Now:     w.engine.Now(),
		NextSeq: w.engine.NextSeq(),
		Rand: RandState{
			Arrival:   w.arrivalRand.State(),
			Workload:  w.workloadRand.State(),
			Behave:    w.behaveRand.State(),
			Key:       w.keyRand.State(),
			Churn:     w.churnProc.SrcState(),
			WkArrival: w.wkArrivalRand.State(),
			Cohort:    w.cohortRand.State(),
		},
		Seq:          w.seq,
		ArrClock:     w.arrClock,
		ArrivalGen:   w.arrivalGen,
		DepartClk:    w.departClk,
		DepartGen:    w.departGen,
		WkReplayNext: w.wkReplayNext,
		BusStats:     w.bus.Stats(),
		RepSum:       w.repSum,
		DirtyRep:     make([]id.ID, len(w.dirtyRep)),
		Metrics:      w.m,
	}
	for i, h := range w.dirtyRep {
		s.DirtyRep[i], _ = w.handles.ID(h)
	}
	// The Cohorts slice would otherwise share its backing array with the
	// live world, letting later increments mutate the snapshot.
	s.Metrics.Cohorts = append([]CohortStats(nil), w.m.Cohorts...)
	s.Metrics.CoopCount = copySeries(w.m.CoopCount)
	s.Metrics.UncoopCount = copySeries(w.m.UncoopCount)
	s.Metrics.CoopReputation = copySeries(w.m.CoopReputation)
	s.Metrics.AdmissionLatency = copyHistogram(w.m.AdmissionLatency)
	s.Metrics.AuditWait = copyHistogram(w.m.AuditWait)
	s.Metrics.SessionLength = copyHistogram(w.m.SessionLength)

	// Every table is made once, at its final length: appending from nil
	// grows a large table about 1.25x at a time, which allocates several
	// times what it keeps.
	pending := w.engine.Pendings()
	s.Events = slices.Grow(s.Events, len(pending))
	for _, ev := range pending {
		rec, err := encodeEvent(ev)
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, rec)
	}

	// One walk of the slots in ascending identifier order fills both
	// tables: a first pass counts their records and what the records hold,
	// a second appends them. A handle past the last slot names no world
	// state. Every slice and pointee a record holds is cut from one backing
	// array of its kind, made at its final length, instead of one small
	// object per record.
	slots := slices.DeleteFunc(w.handles.SortedByID(), func(h arena.Ordinal) bool { return int(h) >= len(w.slots) })
	var n struct{ peers, wiped, arcs, partners, plans, signers, arrivals, stores, subjects, reporters int }
	for _, h := range slots {
		sl := &w.slots[h]
		if sl.wiped {
			n.wiped++
		}
		if sl.sm != nil {
			n.arcs += len(sl.sm.deps)
		}
		p := sl.pr
		if p == nil && sl.departed != nil {
			p = sl.departed.peer
		}
		if p == nil {
			continue
		}
		n.peers++
		n.partners += p.Opinions.Partners()
		if p.Plan != nil {
			n.plans++
		}
		if sl.pr == nil {
			continue
		}
		if sl.inFlight {
			n.arrivals++
		}
		if st := sl.store; st != nil {
			n.stores++
			n.subjects += st.Subjects()
			n.reporters += st.Reporters()
		}
	}
	if !w.cfg.NullSign {
		n.signers = n.peers
	}
	s.Peers = slices.Grow(s.Peers, n.peers)
	s.Wiped = slices.Grow(s.Wiped, n.wiped)
	t := &snapTables{
		walks:    make([]bool, 0, n.arcs),
		indexed:  make([]id.ID, 0, w.smDepSlots),
		opinions: make([]rocq.PartnerRecord, 0, n.partners),
		plans:    make([]workload.Plan, 0, n.plans),
		signers:  make([]transport.SignerState, 0, n.signers),
		arrivals: make([]sim.Tick, 0, n.arrivals),
		stores:   make([]rocq.StoreState, 0, n.stores),
		subjects: make([]rocq.SubjectRecord, 0, n.subjects),
		cred:     make([]rocq.CredRecord, 0, n.reporters),
	}
	for _, h := range slots {
		sl := &w.slots[h]
		pid, _ := w.handles.ID(h)
		if sl.wiped {
			s.Wiped = append(s.Wiped, pid)
		}
		if sl.pr == nil && sl.departed == nil {
			continue
		}
		rec, err := w.peerRecord(pid, sl, t)
		if err != nil {
			return nil, err
		}
		if e := sl.sm; e != nil {
			// A skip arc always follows a replica arc: it flags the
			// replica before it.
			from := len(t.walks)
			for _, d := range e.deps {
				if d.skip {
					t.walks[len(t.walks)-1] = true
				} else {
					t.walks = append(t.walks, false)
				}
			}
			rec.Walk = arena.Piece(t.walks, from)
		}
		if len(sl.smDeps) > 0 {
			from := len(t.indexed)
			for _, p := range sl.smDeps {
				listed, _ := w.handles.ID(p)
				t.indexed = append(t.indexed, listed)
			}
			rec.Index = arena.Piece(t.indexed, from)
		}
		s.Peers = append(s.Peers, rec)
	}
	s.Admitted = slices.Grow(s.Admitted, len(w.admittedPeers))
	for _, p := range w.admittedPeers {
		s.Admitted = append(s.Admitted, p.ID)
	}

	topo, err := topology.ExportState(w.topo)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	s.Topology = topo
	s.Lending = w.proto.ExportState()
	return s, nil
}

// Encode serializes the snapshot into a sealed checkpoint file: a
// deterministic binary body inside a digest-verified envelope.
func (s *Snapshot) Encode() ([]byte, error) {
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("world: cannot encode snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	return checkpoint.Seal(checkpoint.KindWorld, s)
}

// DecodeSnapshotBody parses the body of an already-opened world
// checkpoint envelope.
func DecodeSnapshotBody(body []byte) (*Snapshot, error) {
	var s Snapshot
	if err := checkpoint.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("world: snapshot version %d not supported (want %d)", s.Version, SnapshotVersion)
	}
	return &s, nil
}

// Restore reconstructs a running world from a snapshot. The result is
// started and continues byte-identically to the world the snapshot was
// taken from; the snapshot itself is not retained. Defective snapshots
// (dangling references, tables out of the ascending order every export
// writes, records no export writes, unknown event kinds, invalid
// configurations) yield errors.
func Restore(s *Snapshot) (*World, error) {
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("world: snapshot version %d not supported (want %d)", s.Version, SnapshotVersion)
	}
	if err := checkOrder(s); err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	w, err := newBare(s.Config)
	if err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	w.arrivalRand.SetState(s.Rand.Arrival)
	w.workloadRand.SetState(s.Rand.Workload)
	w.behaveRand.SetState(s.Rand.Behave)
	w.keyRand.SetState(s.Rand.Key)
	w.churnProc.RestoreSrc(s.Rand.Churn)
	w.wkArrivalRand.SetState(s.Rand.WkArrival)
	w.cohortRand.SetState(s.Rand.Cohort)

	policy, err := baseline.ByName(s.Policy)
	if err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	w.policy = policy

	// Size the restored tables to the snapshot's counts before filling
	// them. The handle table numbers identities in restore order: each
	// record below interns its peer on first touch, and the world's and
	// lending's slots sit at those handles. Peer records are the slots'
	// usual count, and the table's, which also interns every identity the
	// books, stores and index lists name; they bound the live peers that
	// take a lending slot.
	peers := len(s.Peers)
	w.slots = make([]worldSlot, 0, peers)
	w.handles.Reserve(peers)
	w.proto.Reserve(peers)
	w.admittedPeers = make([]*peer.Peer, 0, len(s.Admitted))

	// One counting pass sizes every array the records' state is cut from:
	// stores, books and their columns, departed peers, plans, placements
	// and index lists. Nothing is adopted from the snapshot, so the
	// restored world shares no memory with it.
	n := rocq.RestoreSizes{Books: peers}
	var departed, plans, placements, arcs, managers, indexed int
	for i := range s.Peers {
		rec := &s.Peers[i]
		n.Partners += len(rec.Opinions)
		if rec.Departed {
			departed++
		}
		if rec.Plan != nil {
			plans++
		}
		if st := rec.Store; st != nil {
			n.Stores++
			n.Subjects += len(st.Subjects)
			n.Reporters += len(st.Cred)
		}
		if len(rec.Walk) > 0 {
			placements++
			arcs += walkArcs(rec.Walk)
			managers += min(w.cfg.NumSM, len(rec.Walk))
		}
		indexed += len(rec.Index)
	}
	rs := rocq.NewRestorer(rocq.DefaultParams(), w.handles, n)
	gone := make([]departedPeer, 0, departed)
	t := &restoreTables{
		live:    make([]id.ID, 0, peers),
		liveH:   make([]arena.Ordinal, 0, peers),
		plans:   make([]workload.Plan, 0, plans),
		entries: make([]smCacheEntry, placements),
		deps:    make([]smDep, arcs),
		sms:     make([]id.ID, managers),
		refs:    make([]rocq.Ref, managers),
		index:   make([]arena.Ordinal, indexed),
	}

	// Peers, their identities, the overlay and what each live node holds.
	// Records arrive in ascending ID order and the ring's treap shape is a
	// pure function of membership, so joining in record order rebuilds the
	// exact structure. Each live peer registers with lending as attachNode
	// registers it, and its crash flag is set after, since registering
	// clears it.
	for i := range s.Peers {
		rec := &s.Peers[i]
		h := w.handles.Intern(rec.ID)
		sl := w.slotAt(h)
		p, err := w.restorePeer(rec, rs, t)
		if err != nil {
			return nil, err
		}
		ident, err := w.restoreIdentity(rec)
		if err != nil {
			return nil, err
		}
		if rec.Departed {
			if rec.live() {
				return nil, fmt.Errorf("world: restore: departed peer %s carries state only a live peer holds", rec.ID.Short())
			}
			sl.departed = add(&gone, departedPeer{peer: p, ident: ident})
			continue
		}
		if err := w.ring.Join(p.ID); err != nil {
			return nil, fmt.Errorf("world: restore: joining %s: %w", p.ID.Short(), err)
		}
		t.live, t.liveH = append(t.live, p.ID), append(t.liveH, h)
		w.proto.RegisterPeer(p.ID, ident)
		if rec.Crashed {
			w.bus.Crash(p.ID)
		}
		sl.pr = p
		sl.rep = rec.Rep
		if rec.Arrival != nil {
			sl.inFlight, sl.arrivedAt = true, *rec.Arrival
		}
		if rec.Store != nil {
			st, err := rs.Store(*rec.Store)
			if err != nil {
				return nil, fmt.Errorf("world: restore: store at %s: %w", rec.ID.Short(), err)
			}
			st.SetOnChange(w.repDirty)
			sl.store = st
		}
	}
	if err := w.proto.RestoreState(s.Lending); err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	w.bus.RestoreStats(s.BusStats)

	for _, pid := range s.Admitted {
		sl := w.slotOf(pid)
		switch {
		case sl == nil || sl.pr == nil:
			return nil, fmt.Errorf("world: restore: admitted peer %s has no record", pid.Short())
		case sl.admitted:
			return nil, fmt.Errorf("world: restore: peer %s admitted twice", pid.Short())
		}
		w.admittedPeers = append(w.admittedPeers, sl.pr)
		sl.admitted = true
	}
	if s.Topology.Kind != w.cfg.Topology {
		return nil, fmt.Errorf("world: restore: topology state kind %q does not match config %q", s.Topology.Kind, w.cfg.Topology)
	}
	topo, err := topology.RestoreState(s.Topology)
	if err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	w.topo = topo

	for _, pid := range s.Wiped {
		w.ensureSlot(pid).wiped = true
	}

	w.seq = s.Seq
	w.arrClock = s.ArrClock
	w.arrivalGen = s.ArrivalGen
	w.departClk = s.DepartClk
	w.departGen = s.DepartGen
	var traceLen int64
	if w.cfg.Workload != nil {
		traceLen = int64(len(w.cfg.Workload.Trace))
	}
	if s.WkReplayNext < 0 || s.WkReplayNext > traceLen {
		return nil, fmt.Errorf("world: restore: replay cursor %d out of range (trace has %d events)", s.WkReplayNext, traceLen)
	}
	w.wkReplayNext = s.WkReplayNext

	w.repSum = s.RepSum
	for _, pid := range s.DirtyRep {
		h := w.handles.Intern(pid)
		sl := w.slotAt(h)
		if sl.dirty {
			return nil, fmt.Errorf("world: restore: duplicate dirty-reputation entry %s", pid.Short())
		}
		sl.dirty = true
		w.dirtyRep = append(w.dirtyRep, h)
	}

	// Placements and index lists, once the ring and every store are whole:
	// a walk's arcs are re-derived from the ring, and its managers must
	// host stores. Index lists are copied out of the snapshot, never
	// adopted, since repairs compact them in place. A list may name a peer
	// that holds no slot: a stale handle of a forgotten peer, which repairs
	// read through cachedAt.
	at := -1 // the record's position among the live peers
	for i := range s.Peers {
		rec := &s.Peers[i]
		if !rec.Departed {
			at++
		}
		if len(rec.Walk) == 0 && len(rec.Index) == 0 {
			continue
		}
		h, _ := w.handles.Get(rec.ID)
		if len(rec.Walk) > 0 {
			if err := w.restorePlacement(rec.ID, h, at, rec.Walk, t); err != nil {
				return nil, err
			}
		}
		if len(rec.Index) > 0 {
			list := arena.Take(&t.index, len(rec.Index))
			for j, pid := range rec.Index {
				list[j] = w.handles.Intern(pid)
			}
			w.slots[h].smDeps = list
			w.smDepSlots += len(list)
		}
	}

	w.m = s.Metrics
	w.m.Cohorts = append([]CohortStats(nil), s.Metrics.Cohorts...)
	if w.m.CoopCount, err = restoredSeries(s.Metrics.CoopCount, "coop", s.Now); err != nil {
		return nil, err
	}
	if w.m.UncoopCount, err = restoredSeries(s.Metrics.UncoopCount, "uncoop", s.Now); err != nil {
		return nil, err
	}
	if w.m.CoopReputation, err = restoredSeries(s.Metrics.CoopReputation, "coop-reputation", s.Now); err != nil {
		return nil, err
	}
	// Histograms are always collected; a snapshot that somehow lacks one
	// restores as empty rather than nil so Observe keeps working.
	w.m.AdmissionLatency = restoredHistogram(s.Metrics.AdmissionLatency, "admission-latency")
	w.m.AuditWait = restoredHistogram(s.Metrics.AuditWait, "audit-wait")
	w.m.SessionLength = restoredHistogram(s.Metrics.SessionLength, "session-length")

	events := make([]sim.PendingEvent, len(s.Events))
	for i, rec := range s.Events {
		if events[i], err = w.decodeEvent(rec); err != nil {
			return nil, err
		}
	}
	w.started = true
	if err := w.engine.Restore(s.Now, s.NextSeq, events); err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	return w, nil
}

// restoreTables holds the live peers in ascending ID order with their
// handles, the ring's members among which each arc's owner is found by
// binary search, and the arrays a restore cuts plans, placements and
// index lists from, each sized by Restore's counting pass.
type restoreTables struct {
	live    []id.ID
	liveH   []arena.Ordinal
	plans   []workload.Plan
	entries []smCacheEntry
	deps    []smDep
	sms     []id.ID
	refs    []rocq.Ref
	index   []arena.Ordinal
}

// walkArcs returns how many arcs a placement walk records: one per
// replica key it consulted, and one per skip arc that followed one.
func walkArcs(walk []bool) int {
	arcs := len(walk)
	for _, skip := range walk {
		if skip {
			arcs++
		}
	}
	return arcs
}

// restorePlacement caches the placement of the live peer pid, at handle h
// and position at among the live peers, that the given walk filled.
// Replica arc r keys pid.Replica(r) and is owned by the ring's successor
// of that key, the first live peer at or after it; a skip arc keys pid and
// is owned by its next member: every repair keeps an arc so. The managers
// are what the arcs replay to, unless the walk is padded: no repair
// replays a padded placement, so a walk that does not replay must be the
// one the ring walks now, which is then padded. Each manager must host a
// store, where the placement's references point.
func (w *World) restorePlacement(pid id.ID, h arena.Ordinal, at int, walk []bool, t *restoreTables) error {
	skipTo := t.liveH[(at+1)%len(t.live)]
	e := &arena.Take(&t.entries, 1)[0]
	e.deps = arena.Take(&t.deps, walkArcs(walk))[:0]
	for r, skip := range walk {
		key := pid.Replica(r)
		owner, _ := slices.BinarySearchFunc(t.live, key, id.ID.Cmp)
		e.deps = append(e.deps, smDep{key: key, owner: t.liveH[owner%len(t.live)]})
		if skip {
			e.deps = append(e.deps, smDep{key: pid, owner: skipTo, skip: true})
		}
	}
	// Each manager a walk replays to is a distinct replica arc's owner, so
	// a walk of fewer replica arcs than numSM never replays.
	if sms, ok := w.replay(h, e, arena.Take(&t.sms, min(w.cfg.NumSM, len(walk)))[:0]); ok {
		e.sms = sms
	} else {
		fresh, err := w.walk(pid, h, w.ring.Size() > 1)
		if err != nil || !slices.Equal(fresh.deps, e.deps) {
			return fmt.Errorf("world: restore: placement of %s has a walk that neither replays to %d managers nor is the ring's padded walk", pid.Short(), w.cfg.NumSM)
		}
		e = fresh
	}
	e.refs = arena.Take(&t.refs, len(e.sms))
	for i, n := range e.sms {
		st, ok := w.storeAt(n)
		if !ok {
			return fmt.Errorf("world: restore: placement of %s has manager %s, which hosts no store", pid.Short(), n.Short())
		}
		e.refs[i] = st.RefHandle(h)
	}
	w.slots[h].sm = e
	w.smCached++
	return nil
}

// checkOrder refuses a peer or wiped-peer table of s that is not strictly
// ascending, as every export writes it; that covers a duplicate record.
// The admission list and the dirty-reputation queue keep insertion order.
func checkOrder(s *Snapshot) error {
	if err := id.Ascending(s.Peers, func(r PeerRecord) id.ID { return r.ID }, id.ID.Cmp); err != nil {
		return fmt.Errorf("peer %w", err)
	}
	if err := id.Ascending(s.Wiped, func(d id.ID) id.ID { return d }, id.ID.Cmp); err != nil {
		return fmt.Errorf("wiped peer %w", err)
	}
	return nil
}

// encodeEvent serializes one pending event. Its kind fixes its payload
// type, so the payload alone picks the record field; a payload no
// record field holds fails the snapshot rather than dropping work.
func encodeEvent(ev sim.PendingEvent) (EventRecord, error) {
	rec := EventRecord{At: ev.At, Seq: ev.Seq, Kind: ev.Name}
	switch p := ev.Payload.(type) {
	case nil:
	case genPayload:
		rec.Gen = &p
	case peerPayload:
		rec.Peer = &p
	case sessionPayload:
		rec.Session = &p
	case lending.IntroWait:
		rec.Intro = &p
	case replayPayload:
		rec.Replay = &p
	default:
		return rec, fmt.Errorf("world: cannot checkpoint pending event %q at tick %d (payload %T)", ev.Name, ev.At, ev.Payload)
	}
	return rec, nil
}

// decodeEvent turns an event record back into a pending event,
// validating that the record carries exactly its kind's payload and that
// a replay event indexes an arrival of the configured trace. The engine
// resolves the kind name to its handler.
func (w *World) decodeEvent(rec EventRecord) (sim.PendingEvent, error) {
	pe := sim.PendingEvent{At: rec.At, Name: rec.Kind, Seq: rec.Seq}
	switch rec.Kind {
	case "transaction", "sample":
	case "arrival", "departure":
		if rec.Gen != nil {
			pe.Payload = *rec.Gen
		}
	case "stake-timeout", "rejoin":
		if rec.Peer != nil {
			pe.Payload = *rec.Peer
		}
	case "session-end", "stake-expiry", "lease-expiry":
		if rec.Session != nil {
			pe.Payload = *rec.Session
		}
	case "intro-refuse", "intro-lend":
		if rec.Intro != nil {
			pe.Payload = *rec.Intro
		}
	case "wk-replay":
		if p := rec.Replay; p != nil {
			switch {
			case !w.replaying():
				return pe, fmt.Errorf("world: replay event in a snapshot whose config replays no trace")
			case p.Idx < 0 || p.Idx >= int64(len(w.cfg.Workload.Trace)):
				return pe, fmt.Errorf("world: replay event index %d out of range (trace has %d events)", p.Idx, len(w.cfg.Workload.Trace))
			case w.cfg.Workload.Trace[p.Idx].Op != workload.OpArrival:
				return pe, fmt.Errorf("world: replay event index %d is not an arrival", p.Idx)
			}
			pe.Payload = *p
		}
	default:
		return pe, fmt.Errorf("world: unknown pending-event kind %q", rec.Kind)
	}
	set := 0
	for _, present := range []bool{rec.Gen != nil, rec.Peer != nil, rec.Session != nil, rec.Intro != nil, rec.Replay != nil} {
		if present {
			set++
		}
	}
	want := 1
	if rec.Kind == "transaction" || rec.Kind == "sample" {
		want = 0
	}
	if set != want || (want == 1 && pe.Payload == nil) {
		return pe, fmt.Errorf("world: event %q does not carry exactly its kind's payload", rec.Kind)
	}
	return pe, nil
}

// snapTables holds the backing arrays a snapshot cuts its peer records'
// slices and pointees from, each made once at its final length, so the
// pointers into one stay valid while it fills.
type snapTables struct {
	walks    []bool
	indexed  []id.ID
	opinions []rocq.PartnerRecord
	plans    []workload.Plan
	signers  []transport.SignerState
	arrivals []sim.Tick
	stores   []rocq.StoreState
	subjects []rocq.SubjectRecord
	cred     []rocq.CredRecord
}

// add appends v to *table and returns the address of the appended
// element: a record's pointee in the array its whole table shares.
func add[T any](table *[]T, v T) *T {
	*table = append(*table, v)
	return &(*table)[len(*table)-1]
}

// peerRecord captures the peer a slot holds, live or departed, with its
// signing identity and, for a live peer, what its node holds but the
// placement cache, cutting its slices and pointees from t. It fails on
// identity kinds the format does not know about.
func (w *World) peerRecord(pid id.ID, sl *worldSlot, t *snapTables) (PeerRecord, error) {
	p := sl.pr
	var ident transport.Identity
	if p != nil {
		ident, _ = w.proto.Identity(pid)
	} else {
		p, ident = sl.departed.peer, sl.departed.ident
	}
	rec := PeerRecord{
		ID:          p.ID,
		Departed:    sl.pr == nil,
		Class:       p.Class,
		Style:       p.Style,
		JoinedAt:    p.JoinedAt,
		Completed:   p.Completed,
		Audited:     p.Audited,
		Introducer:  p.Introducer,
		DefectAt:    p.DefectAt,
		Cohort:      p.Cohort,
		PlanOrdinal: p.PlanOrdinal,
		PlanSeq:     p.PlanSeq,
	}
	rec.Opinions, t.opinions = p.Opinions.ExportState(t.opinions)
	switch ident := ident.(type) {
	case *transport.Signer:
		rec.Signer = add(&t.signers, ident.Export())
	case transport.NullIdentity:
	default:
		return rec, fmt.Errorf("world: cannot checkpoint identity type %T for %s", ident, pid.Short())
	}
	if p.Plan != nil {
		rec.Plan = add(&t.plans, *p.Plan)
	}
	if sl.pr == nil {
		return rec, nil
	}
	rec.Crashed = w.bus.IsCrashed(pid)
	if sl.inFlight {
		rec.Arrival = add(&t.arrivals, sl.arrivedAt)
	}
	rec.Rep = sl.rep
	if sl.store != nil {
		var st rocq.StoreState
		st, t.subjects, t.cred = sl.store.ExportState(t.subjects, t.cred)
		rec.Store = add(&t.stores, st)
	}
	return rec, nil
}

// restorePeer rebuilds one peer object, in the world's slab, from its
// record, with its opinion book from rs and its plan from t.
func (w *World) restorePeer(rec *PeerRecord, rs *rocq.Restorer, t *restoreTables) (*peer.Peer, error) {
	book, err := rs.Book(rec.Opinions)
	if err != nil {
		return nil, fmt.Errorf("world: restore: peer %s: %w", rec.ID.Short(), err)
	}
	p := w.peerSlab.Alloc()
	p.ID, p.Class, p.Style, p.Opinions = rec.ID, rec.Class, rec.Style, book
	p.JoinedAt = rec.JoinedAt
	p.Completed = rec.Completed
	p.Audited = rec.Audited
	p.Introducer = rec.Introducer
	p.DefectAt = rec.DefectAt
	p.Cohort = rec.Cohort
	p.PlanOrdinal = rec.PlanOrdinal
	p.PlanSeq = rec.PlanSeq
	if rec.Plan != nil {
		p.Plan = add(&t.plans, *rec.Plan)
	}
	return p, nil
}

// restoreIdentity rebuilds a peer record's signing identity: the null
// identity in a null-signing world, the captured signer otherwise. A
// record that contradicts cfg.NullSign, which fixes every identity a world
// makes, is refused.
func (w *World) restoreIdentity(rec *PeerRecord) (transport.Identity, error) {
	switch {
	case w.cfg.NullSign && rec.Signer != nil:
		return nil, fmt.Errorf("world: restore: peer %s has a signer in a null-signing world", rec.ID.Short())
	case w.cfg.NullSign:
		return w.nullKeys.Identity(rec.ID), nil
	case rec.Signer == nil:
		return nil, fmt.Errorf("world: restore: peer %s has no signer in a signing world", rec.ID.Short())
	}
	signer, err := transport.SignerFromState(*rec.Signer)
	if err != nil {
		return nil, fmt.Errorf("world: restore: peer %s: %w", rec.ID.Short(), err)
	}
	return signer, nil
}

// copySeries detaches a metrics series from the live world.
func copySeries(s *metrics.Series) *metrics.Series {
	if s == nil {
		return &metrics.Series{}
	}
	return &metrics.Series{Name: s.Name, Points: append([]metrics.Point(nil), s.Points...)}
}

// copyHistogram deep-copies a histogram so the snapshot does not share
// its bucket slice with the live world.
func copyHistogram(h *metrics.Histogram) *metrics.Histogram {
	if h == nil {
		return nil
	}
	c := *h
	c.Counts = append([]int64(nil), h.Counts...)
	return &c
}

// restoredHistogram deep-copies a decoded histogram, substituting an
// empty named one when the snapshot carried none.
func restoredHistogram(h *metrics.Histogram, name string) *metrics.Histogram {
	if h == nil {
		return metrics.NewHistogram(name)
	}
	return copyHistogram(h)
}

// restoredSeries validates a decoded series (monotonic time axis, no
// future points) so the sampling process can keep appending to it.
func restoredSeries(s *metrics.Series, name string, now sim.Tick) (*metrics.Series, error) {
	if s == nil {
		return &metrics.Series{Name: name}, nil
	}
	out := &metrics.Series{Name: s.Name, Points: append([]metrics.Point(nil), s.Points...)}
	for i, pt := range out.Points {
		if i > 0 && pt.T <= out.Points[i-1].T {
			return nil, fmt.Errorf("world: restore: series %q has non-increasing time axis", name)
		}
		if pt.T > int64(now) {
			return nil, fmt.Errorf("world: restore: series %q has a sample in the future (tick %d > %d)", name, pt.T, now)
		}
	}
	return out, nil
}
