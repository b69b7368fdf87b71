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
//     signature memos, store placeholder slots) are rebuilt, while
//     caches whose *layout* feeds deterministic iteration (the
//     placement cache and its owner index, including stale slots) are
//     captured verbatim.

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
// keep no lend or reward nonce history.
const SnapshotVersion = 8

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
// Signer is the null identity.
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
}

// StoreRecord is the reputation store hosted at one overlay node.
type StoreRecord struct {
	Node  id.ID
	State rocq.StoreState
}

// RepRecord is one entry of the sampling cache.
type RepRecord struct {
	Peer id.ID
	Rep  float64
}

// SMDepRecord is one recorded ownership arc of a cached placement.
type SMDepRecord struct {
	Key   id.ID
	Owner id.ID
	Skip  bool
}

// SMCacheRecord is one peer's cached score-manager placement. Stores and
// refs are re-resolved on restore; the manager set and the dependency
// arcs are captured verbatim.
type SMCacheRecord struct {
	Peer   id.ID
	SMs    []id.ID
	Padded bool
	Deps   []SMDepRecord
}

// SMDepsRecord is one owner's slice of the placement index, in its exact
// live order — stale slots included, since scan order feeds the
// deterministic dirty-marking sequence.
type SMDepsRecord struct {
	Owner id.ID
	Peers []id.ID
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
	Wiped    []id.ID      // ascending ID

	Stores   []StoreRecord // ascending node ID
	Topology topology.State
	Lending  lending.State

	Crashed  []id.ID // ascending ID
	BusStats transport.Stats

	RepSum    float64
	RepCached []RepRecord // ascending peer ID
	DirtyRep  []id.ID     // insertion order, verbatim

	SMCache []SMCacheRecord // ascending peer ID
	SMDeps  []SMDepsRecord  // ascending owner ID

	// Arrivals carries the in-flight arrival ticks (peers inside the
	// waiting period), so a resumed run observes the same admission
	// latencies the uncut run would.
	Arrivals []ArrivalRecord // ascending peer ID

	Metrics Metrics
}

// ArrivalRecord is one in-flight arrival: the tick the peer asked for an
// introduction.
type ArrivalRecord struct {
	Peer id.ID
	At   sim.Tick
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
		Crashed:      w.bus.CrashedAddrs(),
		BusStats:     w.bus.Stats(),
		RepSum:       w.repSum,
		DirtyRep:     append([]id.ID(nil), w.dirtyRep...),
		Metrics:      w.m,
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

	// One walk of the slots in ascending identifier order fills every
	// per-peer table: a first pass counts each table's records, a second
	// appends them. A handle past the last slot names no world state. The
	// placement records' manager sets, arcs and index lists are cut from
	// one backing array per table instead of one small slice each.
	walk := slices.DeleteFunc(w.handles.SortedByID(), func(h arena.Ordinal) bool { return int(h) >= len(w.slots) })
	var n struct{ arrivals, peers, wiped, stores, reps, cached, sms, deps, owners int }
	for _, h := range walk {
		sl := &w.slots[h]
		if sl.inFlight {
			n.arrivals++
		}
		if sl.pr != nil || sl.departed != nil {
			n.peers++
		}
		if sl.wiped {
			n.wiped++
		}
		if sl.store != nil {
			n.stores++
		}
		if sl.hasRep {
			n.reps++
		}
		if e := sl.sm; e != nil {
			n.cached++
			n.sms += len(e.sms)
			n.deps += len(e.deps)
		}
		if len(sl.smDeps) > 0 {
			n.owners++
		}
	}
	s.Arrivals = slices.Grow(s.Arrivals, n.arrivals)
	s.Peers = slices.Grow(s.Peers, n.peers)
	s.Wiped = slices.Grow(s.Wiped, n.wiped)
	s.Stores = slices.Grow(s.Stores, n.stores)
	s.RepCached = slices.Grow(s.RepCached, n.reps)
	s.SMCache = slices.Grow(s.SMCache, n.cached)
	s.SMDeps = slices.Grow(s.SMDeps, n.owners)
	sms, deps := make([]id.ID, 0, n.sms), make([]SMDepRecord, 0, n.deps)
	indexed := make([]id.ID, 0, w.smDepSlots)
	for _, h := range walk {
		sl := &w.slots[h]
		pid, _ := w.handles.ID(h)
		if sl.inFlight {
			s.Arrivals = append(s.Arrivals, ArrivalRecord{Peer: pid, At: sl.arrivedAt})
		}
		if sl.pr != nil || sl.departed != nil {
			rec, err := w.peerRecord(pid, sl)
			if err != nil {
				return nil, err
			}
			s.Peers = append(s.Peers, rec)
		}
		if sl.wiped {
			s.Wiped = append(s.Wiped, pid)
		}
		if sl.store != nil {
			s.Stores = append(s.Stores, StoreRecord{Node: pid, State: sl.store.ExportState()})
		}
		if sl.hasRep {
			s.RepCached = append(s.RepCached, RepRecord{Peer: pid, Rep: sl.rep})
		}
		if e := sl.sm; e != nil {
			from := len(sms)
			sms = append(sms, e.sms...)
			rec := SMCacheRecord{Peer: pid, SMs: piece(sms, from), Padded: e.padded}
			from = len(deps)
			for _, d := range e.deps {
				owner, _ := w.handles.ID(d.owner)
				deps = append(deps, SMDepRecord{Key: d.key, Owner: owner, Skip: d.skip})
			}
			rec.Deps = piece(deps, from)
			s.SMCache = append(s.SMCache, rec)
		}
		if len(sl.smDeps) > 0 {
			from := len(indexed)
			for _, p := range sl.smDeps {
				listed, _ := w.handles.ID(p)
				indexed = append(indexed, listed)
			}
			s.SMDeps = append(s.SMDeps, SMDepsRecord{Owner: pid, Peers: piece(indexed, from)})
		}
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
	// books, stores and placements below name; they bound the live peers
	// that take a lending slot and a bus handler.
	peers := len(s.Peers)
	w.slots = make([]worldSlot, 0, peers)
	w.handles.Reserve(peers)
	w.proto.Reserve(peers)
	w.bus.Reserve(peers)
	w.admittedPeers = make([]*peer.Peer, 0, len(s.Admitted))

	// Peers, their identities and the overlay. Records arrive in ascending
	// ID order and the ring's treap shape is a pure function of membership,
	// so joining in record order rebuilds the exact structure. Each live
	// peer registers with lending as attachNode registers it; crash flags
	// are reapplied afterwards, since registering clears them.
	for _, rec := range s.Peers {
		sl := w.ensureSlot(rec.ID)
		p, err := w.restorePeer(rec)
		if err != nil {
			return nil, err
		}
		ident, err := w.restoreIdentity(rec)
		if err != nil {
			return nil, err
		}
		if rec.Departed {
			sl.departed = &departedPeer{peer: p, ident: ident}
			continue
		}
		if err := w.ring.Join(p.ID); err != nil {
			return nil, fmt.Errorf("world: restore: joining %s: %w", p.ID.Short(), err)
		}
		w.proto.RegisterPeer(p.ID, ident)
		sl.pr = p
	}
	if err := w.proto.RestoreState(s.Lending); err != nil {
		return nil, fmt.Errorf("world: restore: %w", err)
	}
	for _, pid := range s.Crashed {
		if w.livePeer(pid) == nil {
			return nil, fmt.Errorf("world: restore: crashed node %s is not a member", pid.Short())
		}
	}
	w.bus.RestoreCrashed(s.Crashed)
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

	for _, rec := range s.Stores {
		// Stores exist only at overlay members.
		sl := w.slotOf(rec.Node)
		if sl == nil || sl.pr == nil {
			return nil, fmt.Errorf("world: restore: store at %s, which holds no live peer", rec.Node.Short())
		}
		st := w.newStore()
		if err := st.RestoreState(rec.State); err != nil {
			return nil, fmt.Errorf("world: restore: store at %s: %w", rec.Node.Short(), err)
		}
		sl.store = st
	}

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
	for _, rec := range s.RepCached {
		sl := w.ensureSlot(rec.Peer)
		sl.hasRep = true
		sl.rep = rec.Rep
	}
	for _, pid := range s.DirtyRep {
		sl := w.ensureSlot(pid)
		if sl.dirty {
			return nil, fmt.Errorf("world: restore: duplicate dirty-reputation entry %s", pid.Short())
		}
		sl.dirty = true
		w.dirtyRep = append(w.dirtyRep, pid)
	}

	// Placements are copied out of the snapshot, never adopted: repairs
	// patch an entry's arcs and compact an owner's index list in place,
	// which would write through to the snapshot's records. Each names its
	// peers and owners by handle. An export writes a placement only for a
	// ring member, each arc owner is a member, a non-padded entry's
	// managers are what its arcs replay to, and a padded one's (which no
	// repair replays) what the ring places, so anything else is refused.
	for _, rec := range s.SMCache {
		h, live := w.liveHandle(rec.Peer)
		switch {
		case !live:
			return nil, fmt.Errorf("world: restore: placement of %s, which is not a live peer", rec.Peer.Short())
		case len(rec.Deps) == 0:
			return nil, fmt.Errorf("world: restore: placement of %s records no arcs", rec.Peer.Short())
		}
		e := &smCacheEntry{
			sms:    append([]id.ID(nil), rec.SMs...),
			deps:   make([]smDep, len(rec.Deps)),
			padded: rec.Padded,
		}
		for i, d := range rec.Deps {
			owner, live := w.liveHandle(d.Owner)
			if !live {
				return nil, fmt.Errorf("world: restore: placement of %s has an arc owned by %s, which is not a live peer", rec.Peer.Short(), d.Owner.Short())
			}
			e.deps[i] = smDep{key: d.Key, owner: owner, skip: d.Skip}
		}
		if e.padded != cycled(e.sms) {
			return nil, fmt.Errorf("world: restore: placement of %s is marked padded %v against its managers", rec.Peer.Short(), e.padded)
		}
		if e.padded {
			fresh, err := w.ring.ScoreManagers(rec.Peer, w.cfg.NumSM)
			if err != nil || !slices.Equal(fresh, e.sms) {
				return nil, fmt.Errorf("world: restore: padded placement of %s names managers the ring does not place", rec.Peer.Short())
			}
		} else {
			sms, ok := w.replay(h, e, w.smScratch[:0])
			w.smScratch = sms
			if !ok || !slices.Equal(sms, e.sms) {
				return nil, fmt.Errorf("world: restore: placement of %s names managers its arcs do not replay to", rec.Peer.Short())
			}
		}
		e.refs = make([]rocq.Ref, len(e.sms))
		for i, n := range e.sms {
			st, ok := w.storeAt(n)
			if !ok {
				return nil, fmt.Errorf("world: restore: placement of %s references missing store %s", rec.Peer.Short(), n.Short())
			}
			e.refs[i] = st.RefHandle(h)
		}
		w.slots[h].sm = e
		w.smCached++
	}
	// An index list may name a peer that holds no slot: a stale handle of
	// a forgotten peer, which repairs read through cachedAt.
	for _, rec := range s.SMDeps {
		owner, live := w.liveHandle(rec.Owner)
		switch {
		case !live:
			return nil, fmt.Errorf("world: restore: placement index at %s, which is not a live peer", rec.Owner.Short())
		case len(rec.Peers) == 0:
			return nil, fmt.Errorf("world: restore: placement index at %s is empty", rec.Owner.Short())
		}
		list := make([]arena.Ordinal, len(rec.Peers))
		for i, pid := range rec.Peers {
			list[i] = w.handles.Intern(pid)
		}
		w.slots[owner].smDeps = list
		w.smDepSlots += len(list)
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

	for _, rec := range s.Arrivals {
		sl := w.slotOf(rec.Peer)
		if sl == nil || sl.pr == nil {
			return nil, fmt.Errorf("world: restore: in-flight arrival %s has no peer record", rec.Peer.Short())
		}
		sl.inFlight = true
		sl.arrivedAt = rec.At
	}

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

// liveHandle returns the handle of a peer whose slot holds it live, and
// false for a departed or unknown one.
func (w *World) liveHandle(pid id.ID) (arena.Ordinal, bool) {
	h, ok := w.handles.Get(pid)
	return h, ok && int(h) < len(w.slots) && w.slots[h].pr != nil
}

// checkOrder refuses any ID-keyed table of s that is not strictly
// ascending, as every export writes it; that covers a duplicate record.
// The admission list and the dirty-reputation queue keep insertion order.
func checkOrder(s *Snapshot) error {
	self := func(d id.ID) id.ID { return d }
	for _, t := range []struct {
		name string
		err  error
	}{
		{"peer", id.Ascending(s.Peers, func(r PeerRecord) id.ID { return r.ID }, id.ID.Cmp)},
		{"wiped peer", id.Ascending(s.Wiped, self, id.ID.Cmp)},
		{"store at", id.Ascending(s.Stores, func(r StoreRecord) id.ID { return r.Node }, id.ID.Cmp)},
		{"crashed node", id.Ascending(s.Crashed, self, id.ID.Cmp)},
		{"cached reputation of", id.Ascending(s.RepCached, func(r RepRecord) id.ID { return r.Peer }, id.ID.Cmp)},
		{"placement entry", id.Ascending(s.SMCache, func(r SMCacheRecord) id.ID { return r.Peer }, id.ID.Cmp)},
		{"placement-index owner", id.Ascending(s.SMDeps, func(r SMDepsRecord) id.ID { return r.Owner }, id.ID.Cmp)},
		{"in-flight arrival", id.Ascending(s.Arrivals, func(r ArrivalRecord) id.ID { return r.Peer }, id.ID.Cmp)},
	} {
		if t.err != nil {
			return fmt.Errorf("%s %w", t.name, t.err)
		}
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

// peerRecord captures the peer a slot holds, live or departed, with its
// signing identity. It fails on identity kinds the format does not know
// about.
func (w *World) peerRecord(pid id.ID, sl *worldSlot) (PeerRecord, error) {
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
		Opinions:    p.Opinions.ExportState(),
	}
	switch ident := ident.(type) {
	case *transport.Signer:
		st := ident.Export()
		rec.Signer = &st
	case transport.NullIdentity:
	default:
		return rec, fmt.Errorf("world: cannot checkpoint identity type %T for %s", ident, pid.Short())
	}
	if p.Plan != nil {
		cp := *p.Plan
		rec.Plan = &cp
	}
	return rec, nil
}

// restorePeer rebuilds one peer object, in the world's slab, from its
// record.
func (w *World) restorePeer(rec PeerRecord) (*peer.Peer, error) {
	p := w.newPeer(rec.ID, rec.Class, rec.Style)
	p.JoinedAt = rec.JoinedAt
	p.Completed = rec.Completed
	p.Audited = rec.Audited
	p.Introducer = rec.Introducer
	p.DefectAt = rec.DefectAt
	p.Cohort = rec.Cohort
	p.PlanOrdinal = rec.PlanOrdinal
	p.PlanSeq = rec.PlanSeq
	if rec.Plan != nil {
		cp := *rec.Plan
		p.Plan = &cp
	}
	if err := p.Opinions.RestoreState(rec.Opinions); err != nil {
		return nil, fmt.Errorf("world: restore: peer %s: %w", rec.ID.Short(), err)
	}
	return p, nil
}

// restoreIdentity rebuilds a peer record's signing identity: the null
// identity in a null-signing world, the captured signer otherwise. A
// record that contradicts cfg.NullSign, which fixes every identity a world
// makes, is refused.
func (w *World) restoreIdentity(rec PeerRecord) (transport.Identity, error) {
	switch {
	case w.cfg.NullSign && rec.Signer != nil:
		return nil, fmt.Errorf("world: restore: peer %s has a signer in a null-signing world", rec.ID.Short())
	case w.cfg.NullSign:
		return transport.NewNullIdentity(rec.ID), nil
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

// piece returns table[from:] capped at its length, or nil when empty: one
// record's share of a backing array its whole table is cut from. The cap
// means an append to one record's piece reallocates instead of writing
// into the next record's.
func piece[T any](table []T, from int) []T {
	if from == len(table) {
		return nil
	}
	return table[from:len(table):len(table)]
}
