package world

// Membership churn of admitted peers: the departure process (a Poisson
// departure clock alongside the arrival clock, plus optional per-peer
// session clocks), the Depart/Crash/Rejoin lifecycle, and the
// score-manager handoff that migrates reputation records when ownership
// arcs shift. The paper's model admits peers and never removes them; this
// file is the extension scenario ROADMAP calls for, built on PR 2's
// incremental placement invalidation.
//
// The handoff protocol, in DHT terms:
//
//   - A *leave* moves ownership of the leaver's arcs to its live
//     successor. Before the node goes, the records it hosts are captured
//     from every surviving replica (including the leaver itself on a
//     graceful leave, excluding it on a crash); after the leave, each new
//     owner that lacks a record adopts the majority-reconciled snapshot.
//     Records whose every replica died in the same event are wiped out —
//     counted, and the only way churn loses reputation state.
//
//   - A *join* moves ownership of part of the successor's arcs to the
//     joiner. The joiner pulls the records it now owns from the current
//     replicas, and the successor drops the ones it no longer owns —
//     Chord key transfer.
//
//   - A *rejoin* is a full re-admission whose reputation needs no
//     bootstrap: the peer's records survived on its (migrating) score
//     managers, so its standing resumes where departure left it.

import (
	"fmt"

	"repro/internal/churn"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// departedPeer is a member that left but may rejoin: its behavioural
// state (opinion book, transaction history) and its signing identity
// survive the downtime.
type departedPeer struct {
	peer  *peer.Peer
	ident transport.Identity
}

// leaver is one node leaving the ring in the current membership event.
type leaver struct {
	pid      id.ID
	graceful bool
}

// handoffRecord is one captured reputation record pending adoption by the
// owners inheriting the leavers' arcs. Its survivors' versions, in
// manager order, are World.handoffSnaps[from:to].
type handoffRecord struct {
	subject  id.ID
	from, to int
}

// migrating reports whether score-manager state migration is active. It
// tracks the live configuration, so a delta that enables churn mid-run
// switches the handoff on from that point. Workload cohorts imply
// migration: cohort session plans depart peers even when the churn
// block is otherwise zero, and those departures must not silently lose
// reputation records.
func (w *World) migrating() bool {
	return w.cfg.Churn.Active() || (w.cfg.Workload != nil && len(w.cfg.Workload.Cohorts) > 0)
}

// minPopulation is the community-size floor under which the departure
// process stops picking victims: enough members to host a full distinct
// replica set.
func (w *World) minPopulation() int {
	if m := w.cfg.Churn.MinPopulation; m > 0 {
		return m
	}
	if w.cfg.NumSM+1 > 2 {
		return w.cfg.NumSM + 1
	}
	return 2
}

// ---------------------------------------------------------------------------
// Public lifecycle API.

// Depart removes an admitted peer gracefully: its node announces the
// departure, hands the records it hosts to the owners inheriting its
// arcs, and leaves. The peer may later Rejoin.
func (w *World) Depart(pid id.ID) error { return w.DepartBatch([]id.ID{pid}, true) }

// Crash removes an admitted peer abruptly: its store is destroyed before
// any handoff, so the records it hosted survive only on the other
// replicas.
func (w *World) Crash(pid id.ID) error { return w.DepartBatch([]id.ID{pid}, false) }

// DepartBatch removes several admitted peers in one membership event —
// the same simulated tick. Captures happen before any node goes, so a
// batch that kills every replica of a record in one stroke is the (only)
// data-loss case, counted as a wipeout.
func (w *World) DepartBatch(pids []id.ID, graceful bool) error {
	if len(pids) == 0 {
		return nil
	}
	batch := make([]leaver, 0, len(pids))
	seen := make(map[id.ID]bool, len(pids))
	for _, pid := range pids {
		if seen[pid] {
			return fmt.Errorf("world: duplicate departure of %s", pid.Short())
		}
		seen[pid] = true
		if !w.IsAdmitted(pid) {
			return fmt.Errorf("world: cannot depart %s: not an admitted member", pid.Short())
		}
		batch = append(batch, leaver{pid: pid, graceful: graceful})
	}
	if w.ring.Size()-len(batch) < 1 {
		return fmt.Errorf("world: departing %d peers would empty the overlay", len(batch))
	}
	w.departBatch(batch)
	return w.err
}

// Rejoin readmits a departed peer: its node joins the overlay under the
// identity it left with, pulls the records it now owns, and the peer
// resumes with the global reputation its score managers kept for it —
// not a reset, the whole point of replicated score management.
func (w *World) Rejoin(pid id.ID) error {
	s := w.slotOf(pid)
	if s == nil || s.departed == nil {
		return fmt.Errorf("world: cannot rejoin %s: not a departed peer", pid.Short())
	}
	d := s.departed
	s.departed = nil // the slot carries straight over to the readmission
	p := d.peer
	if err := w.attachNodeIdentity(p, d.ident); err != nil {
		return err
	}
	w.m.Churn.Rejoins++
	if cs := w.cohortStats(p.Cohort); cs != nil {
		cs.Rejoins++
	}
	if p.Plan != nil {
		// A returning plan-governed peer starts a fresh visit: redraw the
		// session plan from its keyed stream before admission arms the
		// session clock.
		w.redrawPlan(p)
	}
	w.record(telemetry.Rejoined, pid, id.ID{}, p.Class.String())
	if w.wkRecorder != nil {
		w.wkRecorder.Record(workload.Event{
			At: int64(w.engine.Now()), Op: workload.OpRejoin,
			Cohort: p.Cohort, Peer: pid.Short(), Plan: p.Plan,
		})
	}
	w.admit(p, w.engine.Now())
	return w.err
}

// IsDeparted reports whether the peer is offline but eligible to rejoin.
func (w *World) IsDeparted(pid id.ID) bool {
	s := w.slotOf(pid)
	return s != nil && s.departed != nil
}

// WipedOut reports whether every replica of the peer's reputation died in
// a single membership event at some point in the run.
func (w *World) WipedOut(pid id.ID) bool {
	s := w.slotOf(pid)
	return s != nil && s.wiped
}

// ---------------------------------------------------------------------------
// Departure process (the churn clocks).

// scheduleNextDeparture advances the continuous Poisson departure clock —
// the exact dual of scheduleNextArrival, including the one-event-per-tick
// clamp and the generation guard that lets ApplyDelta re-arm the process
// when μ changes.
func (w *World) scheduleNextDeparture() {
	if w.cfg.Churn.Mu <= 0 {
		return
	}
	gen := w.departGen
	w.departClk += w.churnProc.DepartureGap()
	at := sim.Tick(w.departClk)
	if at <= w.engine.Now() {
		at = w.engine.Now() + 1
		w.departClk = float64(at)
	}
	w.engine.Schedule(at, w.kinds.departure, genPayload{Gen: gen})
}

// departureEvent is the departure armed under the payload's process
// generation: it aborts if a μ delta re-armed the chain since.
func (w *World) departureEvent(payload any) {
	if payload.(genPayload).Gen != w.departGen {
		return
	}
	w.handleDeparture()
	w.scheduleNextDeparture()
}

// rearmDepartures cancels any in-flight departure chain and, when μ is
// positive and the workload is running, starts a fresh process from now.
func (w *World) rearmDepartures() {
	w.departGen++
	if !w.started {
		return // Start will arm the (new-generation) chain
	}
	w.departClk = float64(w.engine.Now())
	w.scheduleNextDeparture()
}

// handleDeparture executes one departure-clock event: a uniformly chosen
// admitted peer leaves (gracefully or by crash), unless the population is
// already at the configured floor.
func (w *World) handleDeparture() {
	n := len(w.admittedPeers)
	if n <= w.minPopulation() {
		return
	}
	victim := w.admittedPeers[w.churnProc.Victim(n)]
	w.churnDepart(victim)
}

// scheduleSessionEnd arms the session clock of a freshly admitted peer:
// it departs when its drawn session length elapses, unless it already
// left (or left and rejoined) by other means.
func (w *World) scheduleSessionEnd(p *peer.Peer) {
	joined := p.JoinedAt
	w.armSessionEnd(p, joined, joined+sim.Tick(w.churnProc.SessionLength()))
}

// armSessionEnd schedules one session-expiry attempt. An expiry that
// lands while the population sits at the floor extends the session by a
// fresh draw instead of dropping the event — otherwise a peer whose
// session happened to end during a population trough would become
// immortal for the rest of the run.
func (w *World) armSessionEnd(p *peer.Peer, joined, at sim.Tick) {
	w.engine.Schedule(at, w.kinds.sessionEnd, sessionPayload{Peer: p.ID, Joined: joined})
}

// sessionEndEvent is the session expiry of the peer the payload names,
// admitted at its Joined tick. The peer is resolved by identifier at
// fire time: a departure in the interim removes it from the peer table,
// a rejoin bumps JoinedAt — either way the stale event aborts.
func (w *World) sessionEndEvent(payload any) {
	sp := payload.(sessionPayload)
	if w.err != nil || !w.IsAdmitted(sp.Peer) {
		return
	}
	p := w.livePeer(sp.Peer)
	if p == nil || p.JoinedAt != sp.Joined {
		return
	}
	if len(w.admittedPeers) <= w.minPopulation() {
		w.armSessionEnd(p, sp.Joined, w.engine.Now()+sim.Tick(w.sessionExtension(p)))
		return
	}
	w.churnDepart(p)
}

// churnDepart runs one process-driven departure: crash-or-leave draw,
// the departure itself, and the optional rejoin scheduling. Scripted
// departures (Depart/Crash/DepartBatch) never auto-rejoin — and stay
// rejoin-eligible for the caller — but a process departure that draws
// no rejoin is known permanent at this very moment, so its rejoin state
// and its now-unreachable reputation records are dropped instead of
// accreting (and re-migrating) for the rest of the run.
func (w *World) churnDepart(p *peer.Peer) {
	graceful := !w.planCrashes(p)
	w.departBatch([]leaver{{pid: p.ID, graceful: graceful}})
	if w.err != nil {
		return
	}
	after, ok := w.planRejoins(p)
	if !ok {
		w.forgetDeparted(p.ID)
		return
	}
	w.engine.After(sim.Tick(after), w.kinds.rejoin, peerPayload{Peer: p.ID})
}

// rejoinEvent is the scheduled return of a process-departed peer.
func (w *World) rejoinEvent(payload any) {
	pid := payload.(peerPayload).Peer
	if w.err != nil || !w.IsDeparted(pid) {
		return
	}
	if err := w.Rejoin(pid); err != nil {
		w.fail(fmt.Errorf("sim: rejoin of %s: %w", pid.Short(), err))
	}
}

// forgetDeparted finalises a departure known to be permanent: the peer
// loses rejoin eligibility and every copy of its reputation record is
// dropped — the current replicas and any orphaned copies older arc
// shifts left behind (only the peer's own placement could ever read
// them, and it is gone for good). The sweep is O(stores) per permanent
// departure; skipping the orphans instead would accrete one dead slot
// per (departure × past manager) for the run's lifetime under exactly
// the sustained-churn workloads this subsystem exists for.
func (w *World) forgetDeparted(pid id.ID) {
	if s := w.slotOf(pid); s != nil && s.departed != nil {
		d := s.departed
		s.departed = nil
		w.peerSlab.Free(d.peer)
	}
	if h, ok := w.handles.Get(pid); ok {
		for i := range w.slots {
			if st := w.slots[i].store; st != nil {
				st.ForgetHandle(h)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// The departure itself.

// departBatch removes the (validated, admitted) leavers in one membership
// event: capture the records their stores host, detach each node from
// every table, then hand the captured records to the new arc owners.
func (w *World) departBatch(batch []leaver) {
	var records []handoffRecord
	if w.migrating() {
		records = w.captureHandoff(batch)
	}
	for _, l := range batch {
		p := w.livePeer(l.pid)
		ident, _ := w.proto.Identity(l.pid)
		w.removeAdmitted(p)
		w.m.SessionLength.Observe(int64(w.engine.Now() - p.JoinedAt))
		detail := "leave"
		if l.graceful {
			w.m.Churn.Departures++
			if cs := w.cohortStats(p.Cohort); cs != nil {
				cs.Departures++
			}
		} else {
			detail = "crash"
			w.m.Churn.Crashes++
			if cs := w.cohortStats(p.Cohort); cs != nil {
				cs.Crashes++
			}
		}
		w.record(telemetry.Departed, l.pid, id.ID{}, detail)
		if w.wkRecorder != nil {
			w.wkRecorder.Record(workload.Event{
				At: int64(w.engine.Now()), Op: workload.OpDepart,
				Cohort: p.Cohort, Peer: l.pid.Short(), Detail: detail,
			})
		}
		succ, _ := w.ring.NextMember(l.pid) // the heir of the arcs, read before the leave
		if err := w.ring.Leave(l.pid); err != nil {
			w.fail(fmt.Errorf("sim: departure of %s: %w", l.pid.Short(), err))
			return
		}
		w.noteRingLeave(l.pid, succ)
		w.proto.UnregisterPeer(l.pid)
		// Fetch the slot only now: noteRingLeave can mark reputation dirty,
		// which may grow the slots and move earlier pointers.
		s := w.slotOf(l.pid)
		s.store = nil
		s.pr = nil
		s.departed = &departedPeer{peer: p, ident: ident}
		w.scheduleStakeExpiry(p)
		w.scheduleLeaseExpiry(p)
	}
	w.applyHandoff(records)
}

// scheduleStakeExpiry arms the offline-record TTL for a departing
// newcomer's stake record: if the peer has not been readmitted within
// StakeTimeout ticks, the record is resolved (if still pending) and
// dropped, so rejoin-free churn cannot accrete one stake record per
// departed newcomer. A rejoin bumps p.JoinedAt, which cancels the timer;
// a later departure arms a fresh one.
func (w *World) scheduleStakeExpiry(p *peer.Peer) {
	if w.cfg.StakeTimeout <= 0 || !w.proto.HasStake(p.ID) {
		return
	}
	w.engine.After(sim.Tick(w.cfg.StakeTimeout), w.kinds.stakeExpiry, sessionPayload{Peer: p.ID, Joined: p.JoinedAt})
}

// stakeExpiryEvent is the offline-record TTL of the peer the payload
// names, which departed with JoinedAt equal to its Joined tick. The peer
// is resolved by identifier: it may still sit in the departed set, be
// back in the community (a rejoin bumped JoinedAt, cancelling the
// timer), or be gone for good (forgotten after a no-rejoin draw) — in
// which case no object remains, JoinedAt cannot have moved, and the
// expiry proceeds.
func (w *World) stakeExpiryEvent(payload any) {
	sp := payload.(sessionPayload)
	if w.err != nil || w.IsAdmitted(sp.Peer) {
		return
	}
	if p := w.peerByID(sp.Peer); p != nil && p.JoinedAt != sp.Joined {
		return
	}
	if state, ok := w.proto.ExpireStake(sp.Peer); ok {
		w.m.Churn.StakesExpired++
		w.record(telemetry.StakeExpired, sp.Peer, id.ID{}, state.String())
	}
}

// scheduleLeaseExpiry arms the reputation-record lease for a departing
// peer: a peer offline longer than LeaseTTL ticks loses its lease — every
// replica of its record is evicted and its rejoin eligibility dropped,
// counted in Churn.LeaseEvictions. A rejoin bumps p.JoinedAt, which
// cancels the timer; a later departure arms a fresh one.
func (w *World) scheduleLeaseExpiry(p *peer.Peer) {
	if w.cfg.Churn.LeaseTTL <= 0 {
		return
	}
	w.engine.After(sim.Tick(w.cfg.Churn.LeaseTTL), w.kinds.leaseExpiry, sessionPayload{Peer: p.ID, Joined: p.JoinedAt})
}

// leaseExpiryEvent is the record-lease TTL of the peer the payload
// names, which departed with JoinedAt equal to its Joined tick.
// Resolution mirrors stakeExpiryEvent: readmission or a JoinedAt bump
// cancels the eviction; a peer already forgotten (no-rejoin draw) has no
// records left to evict.
func (w *World) leaseExpiryEvent(payload any) {
	sp := payload.(sessionPayload)
	if w.err != nil || w.IsAdmitted(sp.Peer) {
		return
	}
	p := w.peerByID(sp.Peer)
	if p == nil || p.JoinedAt != sp.Joined {
		return
	}
	w.evictLease(sp.Peer)
}

// evictLease expires a departed peer's record lease: the counter, the
// event, and the same finalisation a permanent departure gets —
// rejoin eligibility and every replica of the record are dropped.
func (w *World) evictLease(pid id.ID) {
	s := w.slotOf(pid)
	if s == nil || s.departed == nil {
		return
	}
	w.m.Churn.LeaseEvictions++
	w.record(telemetry.LeaseEvicted, pid, id.ID{}, "")
	w.forgetDeparted(pid)
}

// peerByID resolves a peer object whether it is currently in the system
// or departed-but-rejoinable; nil when no object remains.
func (w *World) peerByID(pid id.ID) *peer.Peer {
	if p := w.livePeer(pid); p != nil {
		return p
	}
	if s := w.slotOf(pid); s != nil && s.departed != nil {
		return s.departed.peer
	}
	return nil
}

// removeAdmitted takes a peer out of the admitted community: membership
// slice and set (preserving admission order), topology, population
// counters and the sampling sum.
func (w *World) removeAdmitted(p *peer.Peer) {
	for i, q := range w.admittedPeers {
		if q == p {
			w.admittedPeers = append(w.admittedPeers[:i], w.admittedPeers[i+1:]...)
			break
		}
	}
	s := w.slotOf(p.ID)
	s.admitted = false
	w.topo.Remove(p.ID)
	if cs := w.cohortStats(p.Cohort); cs != nil {
		cs.InSystem--
	}
	if p.Class == peer.Cooperative {
		w.m.CoopInSystem--
		w.repSum -= s.rep
		s.rep = 0
	} else {
		w.m.UncoopInSystem--
	}
}

// ---------------------------------------------------------------------------
// Score-manager state migration.

// captureHandoff snapshots, before any leaver goes, every record the
// leavers host and are still responsible for, from all surviving
// replicas. Graceful leavers participate as sources; crashing ones do
// not. Orphaned replicas (slots whose node lost responsibility under an
// earlier arc shift) are skipped — migrating them would resurrect stale
// data.
//
// The records and their snapshots live in world-owned buffers that the
// next capture overwrites. Captures are not re-entrant: nothing between
// a capture and its applyHandoff departs or detaches a node.
func (w *World) captureHandoff(batch []leaver) []handoffRecord {
	out := w.handoffRecs[:0]
	snaps := w.handoffSnaps[:0]
	clear(w.handoffSeen)
	for _, l := range batch {
		st, ok := w.storeAt(l.pid)
		if !ok {
			continue
		}
		w.subjScratch = st.SubjectIDs(w.subjScratch[:0])
		for _, subject := range w.subjScratch {
			if _, dup := w.handoffSeen[subject]; dup {
				continue
			}
			sms := w.ScoreManagers(subject) // placement before the leave
			if !id.Contains(sms, l.pid) {
				continue // orphaned replica: responsibility moved earlier
			}
			w.handoffSeen[subject] = struct{}{}
			rec := handoffRecord{subject: subject, from: len(snaps)}
			for i, m := range sms {
				if id.Contains(sms[:i], m) {
					continue // padded placement repeats managers
				}
				if crashing(batch, m) {
					continue // a crashing replica cannot be pulled from
				}
				if src, ok := w.storeAt(m); ok {
					if snap, ok := src.Export(subject); ok {
						snaps = append(snaps, snap)
					}
				}
			}
			rec.to = len(snaps)
			out = append(out, rec)
		}
	}
	w.handoffRecs, w.handoffSnaps = out, snaps
	return out
}

// crashing reports whether node leaves in the batch by crash. A batch is
// small, so a scan beats building a set.
func crashing(batch []leaver, node id.ID) bool {
	for _, l := range batch {
		if l.pid == node {
			return !l.graceful
		}
	}
	return false
}

// applyHandoff completes the migration after the leavers are gone: each
// record's new owners that lack it adopt the majority-reconciled
// snapshot. A record with no surviving snapshot is a wipeout — all its
// replicas died in this event.
func (w *World) applyHandoff(records []handoffRecord) {
	if len(records) == 0 || w.ring.Size() == 0 {
		return
	}
	for _, rec := range records {
		snap, ok := churn.Reconcile(w.handoffSnaps[rec.from:rec.to])
		if !ok {
			w.m.Churn.Wipeouts++
			w.ensureSlot(rec.subject).wiped = true
			w.record(telemetry.Wipeout, rec.subject, id.ID{}, "")
			w.markRepDirty(w.handles.Intern(rec.subject))
			continue
		}
		for _, r := range w.smEntry(rec.subject).refs { // placement after the leave
			if st := r.Store(); !st.Known(rec.subject) {
				st.Adopt(rec.subject, snap)
				w.m.Churn.Migrated++
			}
		}
	}
}

// migrateAfterJoin pulls onto a freshly joined node the records it now
// owns. The joiner captures part of exactly its live successor's arcs,
// so the successor's store is the scan set; sources are the record's
// current replicas plus the successor itself. Records the successor no
// longer owns are dropped there — Chord key transfer, which also stops
// orphans from accreting under sustained churn. One case escapes the
// scan: the successor's *own* record (a peer never hosts itself), pulled
// separately by pullSelfSkipTakeover.
func (w *World) migrateAfterJoin(x id.ID) {
	succ, ok := w.ring.NextMember(x)
	if !ok || succ == x {
		return
	}
	if src, ok := w.storeAt(succ); ok {
		w.subjScratch = src.SubjectIDs(w.subjScratch[:0])
		for _, subject := range w.subjScratch {
			sms := w.ScoreManagers(subject) // placement including the joiner
			if !id.Contains(sms, x) {
				continue // the joiner took none of this record's replica keys
			}
			snaps := w.snapScratch[:0]
			succIsManager := false
			for i, m := range sms {
				if m == x || id.Contains(sms[:i], m) {
					continue
				}
				if m == succ {
					succIsManager = true
				}
				if st, ok := w.storeAt(m); ok {
					if snap, ok := st.Export(subject); ok {
						snaps = append(snaps, snap)
					}
				}
			}
			if !succIsManager {
				// The successor lost every replica key of this record to
				// the joiner; it is still the freshest source for this
				// pull.
				if snap, ok := src.Export(subject); ok {
					snaps = append(snaps, snap)
				}
			}
			w.snapScratch = snaps
			if snap, ok := churn.Reconcile(snaps); ok {
				dst := w.Store(x)
				if !dst.Known(subject) {
					dst.Adopt(subject, snap)
					w.m.Churn.Migrated++
				}
			}
			if !succIsManager {
				src.Forget(subject) // key transferred: the old owner lets go
			}
		}
	}
	w.pullSelfSkipTakeover(x, succ)
}

// pullSelfSkipTakeover handles the one record a join can capture that the
// successor's store never held: the successor's own. A replica key of a
// peer that lands on the peer itself is skipped clockwise (a peer must
// not manage its own reputation), so the record lives at the skip
// target, not the owner. When the joiner lands directly in front of a
// peer it takes over such self-owned keys and becomes a real manager;
// the pull sources are the record's current replicas — and the displaced
// skip target, which drops the record if it holds no other replica key
// (the same key-transfer rule as the ordinary scan).
func (w *World) pullSelfSkipTakeover(x, subject id.ID) {
	sms := w.ScoreManagers(subject)
	if !id.Contains(sms, x) {
		return // the joiner took over none of the subject's keys
	}
	dst := w.Store(x)
	if dst.Known(subject) {
		return
	}
	snaps := w.snapScratch[:0]
	for i, m := range sms {
		if m == x || id.Contains(sms[:i], m) {
			continue
		}
		if st, ok := w.storeAt(m); ok {
			if snap, ok := st.Export(subject); ok {
				snaps = append(snaps, snap)
			}
		}
	}
	// The displaced skip target is the subject's next member; when it
	// dropped out of the manager set it still holds the freshest copy.
	skip, ok := w.ring.NextMember(subject)
	displaced := ok && skip != subject && skip != x && !id.Contains(sms, skip)
	if displaced {
		if st, ok := w.storeAt(skip); ok {
			if snap, ok := st.Export(subject); ok {
				snaps = append(snaps, snap)
			}
		}
	}
	w.snapScratch = snaps
	if snap, ok := churn.Reconcile(snaps); ok {
		dst.Adopt(subject, snap)
		w.m.Churn.Migrated++
	}
	if displaced {
		if st, ok := w.storeAt(skip); ok {
			st.Forget(subject) // key transferred: the old skip target lets go
		}
	}
}
