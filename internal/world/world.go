// Package world wires every substrate into the paper's simulator: a
// Chord-like overlay hosting replicated ROCQ score managers, the
// reputation-lending admission protocol, a topology-biased transaction
// workload (exactly one transaction per tick), Poisson arrivals classed
// by fracUncoop — and the extensions the later PRs grew: membership
// churn with score-manager state migration (churn.go), mid-run parameter
// deltas as the scenario phase hook (delta.go), and the stake-lifecycle
// clock that refunds or strands admission stakes orphaned by churn.
//
// A World is a pure function of its config.Config: independent random
// streams per process (workload, arrivals, behaviour, keys, churn) keep
// parameter changes from reshuffling unrelated draws, and nothing inside
// a run is concurrent — replica parallelism lives in the experiments
// package. Hot paths are cached (incremental score-manager placement,
// O(changed-peers) reputation sampling); DESIGN.md's "Performance model"
// section is the map.
package world

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/arena"
	"repro/internal/baseline"
	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/lending"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/peer"
	"repro/internal/rng"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// World wires the substrates into the paper's simulator: a structured
// overlay hosting ROCQ score managers, the reputation-lending admission
// protocol, a topology-biased transaction workload (one transaction per
// tick), and Poisson arrivals of new peers.
type World struct {
	cfg    config.Config
	engine *sim.Engine
	//replend:allow snapshotfields registered by newBare on every engine; pending events cross a checkpoint by kind name
	kinds  eventKinds
	bus    *transport.Bus
	ring   *overlay.Ring
	topo   topology.Selector
	proto  *lending.Protocol
	policy baseline.Policy // used when cfg.RequireIntroductions is false
	//replend:allow snapshotfields observability sink, not simulation state: publishing changes no draw, and a resumed run re-publishes from the cut
	telem *telemetry.Bus // optional streaming telemetry bus (nil = off)
	//replend:allow snapshotfields observability-only wall-clock span recorder; write-only from the simulation's side, never read by it
	spans *telemetry.Spans // optional instrumentation spans (nil = off)

	// Independent random streams keep the workload, the arrival process
	// and behavioural coin flips decoupled, so e.g. changing λ does not
	// reshuffle transaction outcomes. The churn stream is split last so
	// enabling departures leaves every earlier stream untouched.
	arrivalRand  *rng.Source
	workloadRand *rng.Source
	behaveRand   *rng.Source
	keyRand      *rng.Source

	// Workload layer (see workload.go in this package and the
	// internal/workload package): two dedicated streams split after every
	// pre-existing one, derived views of the spec rebuilt from the config,
	// the trace-replay cursor and the optional trace recorder.
	wkArrivalRand *rng.Source // candidate arrival times + thinning accepts
	cohortRand    *rng.Source // cohort mixer and arrival class/style draws
	//replend:allow snapshotfields derived view of Config.Workload.Rate, rebuilt by newBare
	wkProgram *workload.Program
	//replend:allow snapshotfields derived view of Config.Workload.Cohorts, rebuilt by newBare
	wkWeights []float64
	//replend:allow snapshotfields pure function of Config.Seed, recomputed by newBare
	wkPlanSeed uint64
	//replend:allow snapshotfields derived view of Config.Workload.Cohorts, rebuilt by newBare
	wkDemandOn bool
	//replend:allow snapshotfields derived view of Config.Workload.Cohorts, rebuilt by newBare
	wkMaxDemand  float64
	wkReplayNext int64 // index of the next trace event the replay chain examines
	//replend:allow snapshotfields observability sink, not simulation state: attaching a recorder changes no draw, and a resumed run re-records from the cut
	wkRecorder *workload.Recorder

	// Per-peer simulation state lives in slots, indexed by the peer's
	// handle (see handles), so million-peer worlds index one flat slice
	// instead of chasing eight separate per-peer maps. Handles never feed
	// output bytes — output iteration stays over sorted ids
	// (Ordinals.SortedByID) or recorded insertion orders. The one walk in
	// handle order, forgetDeparted's store sweep, forgets one subject per
	// store, so its order is unobservable. Peer objects come from
	// peerSlab, which packs them into chunked, pointer-stable storage.
	slots []worldSlot
	//replend:allow snapshotfields allocation pool, not state; restore re-allocates every peer object from it
	peerSlab arena.Slab[peer.Peer]
	// nullKeys makes the null identities of a null-signing world.
	//replend:allow snapshotfields allocation pool, not state; restore re-derives each null identity from its peer's ID
	nullKeys      transport.NullKeys
	admittedPeers []*peer.Peer // members in admission order

	// handles is the world's one identity table: it numbers every peer
	// the world, its lending protocol and its ROCQ state have seen. The
	// handle indexes the world's and the protocol's slots, and stores and
	// opinion books key their columns on it instead of on 20-byte ids. It
	// never releases, so a handle is never reused: stores keep forgotten
	// reporters' credibility and books keep opinions of forgotten
	// partners. No checkpoint carries it: Restore numbers identities in
	// restore order.
	//replend:allow snapshotfields handle table, not state: restore rebuilds it as it restores peers, stores and books, and exports map handles back to ids
	handles *arena.Ordinals

	// Membership churn (see churn.go): the departure process and clocks;
	// departed peers and the wipeout marks live in the slots.
	churnProc *churn.Process
	departClk float64 // continuous departure clock (Poisson process)
	departGen int64   // invalidates in-flight departure chains on μ changes

	// Incremental sampling state: the running sum of cached cooperative
	// reputations and the dirty queue of peers whose reputation may have
	// moved since the last flush (see sample), by handle. Membership of the
	// queue is the dirty bit in each slot.
	repSum   float64
	dirtyRep []arena.Ordinal // insertion-ordered for deterministic flushing

	// The placement cache: each member's score-manager assignment (and
	// references to the peer's slot in each manager's store) sits in its
	// world slot (worldSlot.sm). Invalidation is incremental: each entry
	// records the ownership arcs its placement consulted, and the owner
	// index (worldSlot.smDeps) lists the entries by the member that
	// answered, so a join or leave repairs only the peers whose successor
	// set can actually change instead of the whole cache (the old
	// whole-epoch scheme collapsed to a ~0% hit rate under arrivals,
	// recomputing placement on every transaction). smCached counts the
	// cached entries and smDepSlots the index slots, live and stale.
	smCached   int
	smDepSlots int

	// snapScratch is the join-time migration's survivor buffer, reused
	// record after record so a pull allocates nothing per record.
	//replend:allow snapshotfields scratch buffer, not state: emptied before every use
	snapScratch []rocq.Snapshot
	// subjScratch receives a scanned store's subjects, for the handoff
	// capture and the join-time migration alike.
	//replend:allow snapshotfields scratch buffer, not state: emptied before every use
	subjScratch []id.ID
	// handoffRecs and handoffSnaps hold a leave's captured records until
	// applyHandoff adopts them; each record names its range of
	// handoffSnaps. handoffSeen is the capture's set of subjects taken.
	//replend:allow snapshotfields scratch buffer, not state: emptied before every use
	handoffRecs []handoffRecord
	//replend:allow snapshotfields scratch buffer, not state: emptied before every use
	handoffSnaps []rocq.Snapshot
	//replend:allow snapshotfields scratch set, not state: cleared before every use
	handoffSeen map[id.ID]struct{}
	// smScratch and refScratch hold a placement repair's new manager set
	// and references while the entry's old ones are still being read.
	//replend:allow snapshotfields scratch buffer, not state: emptied before every use
	smScratch []id.ID
	//replend:allow snapshotfields scratch buffer, not state: emptied before every use
	refScratch []rocq.Ref
	// joinScratch collects the peers a join's repairs index under the
	// joiner, so the joiner's index slice is made once, at its length.
	//replend:allow snapshotfields scratch buffer, not state: emptied before every use
	joinScratch []arena.Ordinal

	// repDirty is markRepDirty as a method value, built once by newBare
	// and handed to every store as its change observer: stores name the
	// changed subject by its handle in the world's table.
	//replend:allow snapshotfields observer wiring, rebuilt by newBare; restore hands it to every store it rebuilds
	repDirty func(arena.Ordinal)

	seq        int64   // peer id sequence
	arrClock   float64 // continuous arrival clock for the Poisson process
	arrivalGen int64   // invalidates in-flight arrival chains on λ changes
	started    bool    // workload processes armed
	err        error   // first run-path failure; stops the engine

	m Metrics
}

// worldSlot is one peer's consolidated simulation state — previously
// spread over eight id-keyed maps (peers, stores, departed, wiped,
// repCached, arrivedAt, admittedSet, dirtyIn), now index-addressed by
// the peer's handle. Handles are never released, so neither are slots:
// a slot whose fields have all cleared stays, zeroed, at its handle.
//
// Slots grow only in slotAt, so slot pointers are invalidated by any call
// that can reach it (slotAt, ensureSlot, Store, markRepDirty, smEntry):
// re-resolve through the handle after such calls instead of holding the
// pointer.
type worldSlot struct {
	pr       *peer.Peer    // attached peer object; nil when not in the system
	store    *rocq.Store   // reputation store hosted at the peer's node
	departed *departedPeer // offline but eligible to rejoin
	// sm is the member's cached placement, nil when none is cached.
	// smDeps is the owner index at this member: the peers whose cached
	// entry recorded it as an arc owner when filled or repaired, in
	// append order. The index is lazy: eviction leaves stale handles
	// behind (an O(1) eviction instead of per-dependency deletes), scans
	// validate against the live entry and compact as they go, and a
	// global rebuild runs when the slot count outgrows the live cache so
	// staleness stays bounded. A listed peer may have no slot (a stale
	// handle of a forgotten peer a restore interned): read it through
	// cachedAt.
	sm       *smCacheEntry
	smDeps   []arena.Ordinal
	wiped    bool // every replica died in one membership event (sticky)
	admitted bool // currently in the admitted community
	dirty    bool // queued in dirtyRep for the sampling flush
	inFlight bool // arrivedAt marks a live waiting period
	// rep is the cached aggregate reputation feeding the incremental
	// cooperative mean: part of the sum exactly while the peer is an
	// admitted cooperative one, and zero otherwise. arrivedAt is the tick
	// the in-flight arrival asked for an introduction, observed by the
	// admission-latency histogram.
	rep       float64
	arrivedAt sim.Tick
}

// slotOf returns the peer's slot, nil when it has none.
func (w *World) slotOf(pid id.ID) *worldSlot {
	if h, ok := w.handles.Get(pid); ok && int(h) < len(w.slots) {
		return &w.slots[h]
	}
	return nil
}

// ensureSlot returns the peer's slot, interning its handle and growing
// the slots up to it (zeroed) on first touch.
func (w *World) ensureSlot(pid id.ID) *worldSlot {
	return w.slotAt(w.handles.Intern(pid))
}

// slotAt returns the slot at a handle, growing the slots up to it.
func (w *World) slotAt(h arena.Ordinal) *worldSlot {
	if n := int(h) + 1; n > len(w.slots) {
		w.slots = append(w.slots, make([]worldSlot, n-len(w.slots))...)
	}
	return &w.slots[h]
}

// cachedAt returns the placement cached at a handle, nil when the handle
// has no slot or no cached entry.
func (w *World) cachedAt(h arena.Ordinal) *smCacheEntry {
	if int(h) < len(w.slots) {
		return w.slots[h].sm
	}
	return nil
}

// livePeer returns the attached peer object, nil when the peer is not
// in the system.
func (w *World) livePeer(pid id.ID) *peer.Peer {
	if s := w.slotOf(pid); s != nil {
		return s.pr
	}
	return nil
}

// newPeer allocates a peer record from the world's slab — the
// world-side replacement for peer.New, so churn recycles peer records
// through the slab free-list instead of the garbage collector.
func (w *World) newPeer(pid id.ID, class peer.Class, style peer.Style) *peer.Peer {
	p := w.peerSlab.Alloc()
	p.ID, p.Class, p.Style = pid, class, style
	p.Opinions = rocq.NewOpinionBookOn(rocq.DefaultParams(), w.handles)
	return p
}

// ArenaSlots reports the world's per-peer memory: how many slots exist,
// one per handle up to the highest a peer's state has touched, and how
// many identities the handle table holds. Neither ever shrinks; a slot
// whose peer has gone stays, zeroed.
func (w *World) ArenaSlots() (slots, handles int) {
	return len(w.slots), w.handles.Len()
}

// smCacheEntry is one peer's cached placement: the score-manager set, the
// pre-resolved references to the peer's slot in each manager's store (so
// the per-transaction query and report paths do no map lookups), and the
// ownership arcs the placement depends on. Each dep (key, owner) means
// "owner was the first member clockwise from key"; the entry stays valid
// exactly as long as every such decision would repeat, which eviction
// enforces on membership changes. Owners are handles, so the repair
// scans compare int32s.
type smCacheEntry struct {
	sms    []id.ID
	refs   []rocq.Ref // refs[i]: the peer's slot in sms[i]'s store
	deps   []smDep
	padded bool // placement cycled because fewer than numSM distinct owners exist
}

type smDep struct {
	key   id.ID         // arc start (the replica key, or the peer for a self-skip)
	owner arena.Ordinal // arc end: the member that answered
	skip  bool          // this dep is the clockwise-skip taken after the previous, self-owned dep
}

// Metrics collects everything the experiment harness needs.
type Metrics struct {
	// Population counters (current, cumulative over the run).
	CoopInSystem   int64
	UncoopInSystem int64
	Founders       int64
	ArrivalsCoop   int64
	ArrivalsUncoop int64

	// Admission outcomes by class.
	AdmittedCoop   int64
	AdmittedUncoop int64
	// RefusedSelective counts newcomers declined by their chosen
	// introducer; RefusedRep counts lends blocked by the minIntroRep
	// floor (Fig 4 and Fig 6 plot these).
	RefusedSelectiveCoop   int64
	RefusedSelectiveUncoop int64
	RefusedRepCoop         int64
	RefusedRepUncoop       int64
	RefusedNoIntroducer    int64
	Pending                int64 // arrivals still inside the waiting period at end

	// Serve/deny decision quality, counted over decisions taken by
	// cooperative respondents (§4.1's success-rate definition).
	DecisionsByCoop  int64
	CorrectDecisions int64
	Served           int64
	Denied           int64
	// ServedToUncoop counts completed transactions whose requester was
	// uncooperative: the service freeriders actually extracted — the
	// damage metric of the whitewashing ablation.
	ServedToUncoop int64

	// Audit outcomes.
	AuditsSatisfied int64
	AuditsForfeited int64
	FlaggedPeers    int64

	// Churn counts membership-lifecycle activity: departures, crashes,
	// rejoins, migrated records and full-replica wipeouts.
	Churn churn.Stats

	// Cohorts breaks lifecycle activity down by workload cohort, one row
	// per cohort in first-arrival order. Empty for runs without cohorts.
	Cohorts []CohortStats `json:",omitempty"`

	// Time series sampled every cfg.SampleEvery ticks.
	CoopCount      *metrics.Series // cooperative peers in system
	UncoopCount    *metrics.Series // uncooperative peers in system
	CoopReputation *metrics.Series // mean reputation of cooperative peers

	// Log-bucketed duration histograms, always collected (pure integer
	// bookkeeping, no extra draws): ticks from introduction request to
	// admission, from admission to the audit outcome, and from admission
	// to departure. Introduction-based admissions make AdmissionLatency
	// structurally concentrated at the waiting period; the histogram
	// exists to make that visible (and to catch it drifting).
	AdmissionLatency *metrics.Histogram `json:",omitempty"`
	AuditWait        *metrics.Histogram `json:",omitempty"`
	SessionLength    *metrics.Histogram `json:",omitempty"`
}

// CohortStats counts one workload cohort's lifecycle activity.
type CohortStats struct {
	Name       string
	Arrivals   int64
	Admitted   int64
	InSystem   int64
	Departures int64 `json:",omitempty"`
	Crashes    int64 `json:",omitempty"`
	Rejoins    int64 `json:",omitempty"`
}

// SuccessRate returns the fraction of serve/deny decisions by cooperative
// respondents that were correct (serve a cooperative requester, deny an
// uncooperative one).
func (m *Metrics) SuccessRate() float64 {
	if m.DecisionsByCoop == 0 {
		return 0
	}
	return float64(m.CorrectDecisions) / float64(m.DecisionsByCoop)
}

// NewWorld builds a world from the configuration, creating the founding
// community. Call Run to execute the workload.
func New(cfg config.Config) (*World, error) {
	w, err := newBare(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.createFounders(); err != nil {
		return nil, err
	}
	return w, nil
}

// eventKinds are the engine kinds of the events the world schedules. A
// checkpoint records pending events by kind name; the lending protocol
// registers its two waiting-period kinds itself.
type eventKinds struct {
	transaction, sample, arrival, departure, sessionEnd, rejoin sim.Kind
	stakeTimeout, stakeExpiry, leaseExpiry, replay              sim.Kind
}

// lendingParams maps a configuration onto the lending protocol's
// constants.
func lendingParams(cfg config.Config) lending.Params {
	return lending.Params{
		IntroAmt:       cfg.IntroAmt,
		Reward:         cfg.Reward,
		MinIntroRep:    cfg.MinIntroRep,
		AuditThreshold: cfg.AuditThreshold,
		Wait:           sim.Tick(cfg.WaitPeriod),
		NumSM:          cfg.NumSM,
	}
}

// newBare builds a world's substrates without populating it: the shared
// construction path of New (which adds the founding community) and
// Restore (which overwrites the blank state with a checkpoint).
func newBare(cfg config.Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	w := &World{
		cfg:          cfg,
		engine:       sim.NewEngine(),
		bus:          transport.NewBus(),
		ring:         overlay.NewRing(),
		arrivalRand:  root.Split(),
		workloadRand: root.Split(),
		behaveRand:   root.Split(),
		keyRand:      root.Split(),
		handles:      arena.NewOrdinals(),
		handoffSeen:  make(map[id.ID]struct{}),
		policy:       baseline.MidSpectrum{},
		m: Metrics{
			CoopCount:        &metrics.Series{Name: "coop"},
			UncoopCount:      &metrics.Series{Name: "uncoop"},
			CoopReputation:   &metrics.Series{Name: "coop-reputation"},
			AdmissionLatency: metrics.NewHistogram("admission-latency"),
			AuditWait:        metrics.NewHistogram("audit-wait"),
			SessionLength:    metrics.NewHistogram("session-length"),
		},
	}
	w.repDirty = w.markRepDirty
	e := w.engine
	w.kinds = eventKinds{
		transaction:  e.Handle("transaction", w.transactionEvent),
		sample:       e.Handle("sample", w.sampleEvent),
		arrival:      e.Handle("arrival", w.arrivalEvent),
		departure:    e.Handle("departure", w.departureEvent),
		sessionEnd:   e.Handle("session-end", w.sessionEndEvent),
		rejoin:       e.Handle("rejoin", w.rejoinEvent),
		stakeTimeout: e.Handle("stake-timeout", w.stakeTimeoutEvent),
		stakeExpiry:  e.Handle("stake-expiry", w.stakeExpiryEvent),
		leaseExpiry:  e.Handle("lease-expiry", w.leaseExpiryEvent),
		replay:       e.Handle("wk-replay", w.replayEvent),
	}
	topo, err := topology.New(cfg.Topology, root.Split())
	if err != nil {
		return nil, err
	}
	w.topo = topo
	// Split after every pre-existing stream: a run without churn draws
	// nothing from this source, and a run with churn perturbs no other
	// stream.
	w.churnProc = churn.NewProcess(root.Split(), cfg.Churn)
	// The workload streams split after the churn stream for the same
	// reason: a run without a workload block draws nothing from either,
	// so every pre-existing stream — and every pinned golden — is
	// untouched. Trace replay silences both again: replayed arrivals
	// carry their times, classes and plans, which is what makes a
	// replayed run byte-identical to the recorded one.
	w.wkArrivalRand = root.Split()
	w.cohortRand = root.Split()
	w.wkPlanSeed = workload.PlanSeed(cfg.Seed)
	w.wkMaxDemand = 1
	if wl := cfg.Workload; wl != nil {
		w.wkProgram = wl.Rate
		w.wkWeights = wl.Weights()
		w.wkDemandOn = wl.DemandWeighted()
		w.wkMaxDemand = wl.MaxDemand()
	}

	proto, err := lending.New(lendingParams(cfg), w.engine, w.bus, w, w.handles, lending.Events{
		Admitted:      w.onAdmitted,
		Refused:       w.onRefused,
		AuditOutcome:  w.onAuditOutcome,
		Flagged:       w.onFlagged,
		StakeResolved: w.onStakeResolved,
	})
	if err != nil {
		return nil, err
	}
	w.proto = proto
	if cfg.StakeTimeout > 0 {
		// The stake-lifecycle clock is armed: records of departed
		// newcomers must survive unregistration so the timeout can still
		// refund the introducer; the TTL expiry scheduled at departure
		// keeps them from accreting.
		proto.SetRetainStakes(true)
	}
	return w, nil
}

// SetPolicy selects the bootstrap rule used when the configuration
// disables the introduction requirement.
func (w *World) SetPolicy(p baseline.Policy) { w.policy = p }

// SetTelemetry attaches a streaming telemetry bus; nil detaches it. The
// bus is the world's only event path: the world publishes every event
// and every periodic sample (plus a "population" gauge) into it, and an
// event log (trace.Log) is one sink among others. Telemetry is
// write-only: attaching any combination of sinks changes no random draw
// and no run output — the world tests pin that byte for byte.
func (w *World) SetTelemetry(b *telemetry.Bus) { w.telem = b }

// SetSpans attaches a wall-clock span recorder covering the world's
// instrumented subsystems (overlay membership ops, sampling, snapshot
// encode) and the lending protocol's fan-out; nil detaches it. Spans
// measure wall-clock time but never feed it back: the recorder has no
// methods the simulation reads.
func (w *World) SetSpans(s *telemetry.Spans) {
	w.spans = s
	w.proto.SetSpans(s)
}

// record publishes one event to the telemetry bus, if any sink listens.
// A zero counterparty is left out of the event.
func (w *World) record(kind telemetry.Kind, p, other id.ID, detail string) {
	if !w.telem.Active() {
		return
	}
	ev := telemetry.Event{At: int64(w.engine.Now()), Kind: kind, Peer: p.Short(), Detail: detail}
	if !other.IsZero() {
		ev.Other = other.Short()
	}
	w.telem.Event(ev)
}

// Engine exposes the discrete-event engine (examples drive it directly).
func (w *World) Engine() *sim.Engine { return w.engine }

// Bus exposes the transport layer: scenario crash phases crash and
// recover score managers through it, and reports read its counters.
func (w *World) Bus() *transport.Bus { return w.bus }

// Ring exposes the overlay.
func (w *World) Ring() *overlay.Ring { return w.ring }

// Protocol exposes the lending protocol (for its statistics).
func (w *World) Protocol() *lending.Protocol { return w.proto }

// Metrics returns the collected metrics.
func (w *World) Metrics() *Metrics { return &w.m }

// Config returns the world's configuration.
func (w *World) Config() config.Config { return w.cfg }

// Peer returns a peer by identifier.
func (w *World) Peer(pid id.ID) (*peer.Peer, bool) {
	p := w.livePeer(pid)
	return p, p != nil
}

// PopulationSize returns the number of peers currently in the system.
func (w *World) PopulationSize() int { return len(w.admittedPeers) }

// IsAdmitted reports whether the peer is currently in the system.
func (w *World) IsAdmitted(pid id.ID) bool {
	s := w.slotOf(pid)
	return s != nil && s.admitted
}

// Err returns the first run-path failure, if any. Run and RunFor surface
// it; drivers stepping the engine directly should check it after stepping.
func (w *World) Err() error { return w.err }

// fail records the first run-path failure and stops the engine after the
// in-flight event, so Run/RunFor return instead of computing on in a
// corrupt world.
func (w *World) fail(err error) {
	if w.err == nil {
		w.err = err
		w.engine.Stop()
	}
}

// ---------------------------------------------------------------------------
// lending.Network implementation.

// ScoreManagers returns the current score-manager node set for a peer,
// cached with incremental invalidation on membership changes. The slice
// is the cache's own: a placement repair rewrites it in place, so it is
// valid until the next ring join or leave and must not be modified.
func (w *World) ScoreManagers(p id.ID) []id.ID {
	return w.smEntry(p).sms
}

// emptySMEntry is returned on the (defensive) placement-failure path so
// callers iterating the result degrade to no-ops while fail stops the run.
var emptySMEntry = &smCacheEntry{}

// smEntry returns the peer's cached placement, computing and indexing it
// on a miss. Only members of a ring of two or more are cached: a tiny
// ring's placement can take the self-managing branch, whose validity
// depends on the ring size itself rather than on any ownership arc, and
// leave-time eviction could not reach a non-member (a query about a
// departed peer), so its entry would linger for the world's lifetime.
//
// A member's references pre-create its slot in each manager's store,
// where its evidence lands. A non-member's references resolve only the
// slots the stores already hold: nothing writes evidence through them,
// and a placeholder made for one would back no cached placement, so no
// repair or eviction would ever drop it.
func (w *World) smEntry(p id.ID) *smCacheEntry {
	if s := w.slotOf(p); s != nil && s.sm != nil {
		return s.sm
	}
	member := w.ring.Contains(p)
	cacheable := member && w.ring.Size() > 1
	h := w.handles.Intern(p)
	e, err := w.walk(p, h, cacheable)
	if err != nil {
		w.fail(fmt.Errorf("sim: score managers for %s: %w", p.Short(), err))
		return emptySMEntry
	}
	e.refs = make([]rocq.Ref, len(e.sms))
	for i, n := range e.sms {
		if member {
			e.refs[i] = w.Store(n).RefHandle(h)
		} else {
			e.refs[i] = w.Store(n).HeldRef(h)
		}
	}
	if cacheable {
		w.slotAt(h).sm = e
		w.smCached++
		w.indexDeps(h, e)
		// Amortised staleness bound: when evicted fills have left more
		// dead slots than the live cache could account for, rebuild the
		// index from the cache. Keeps total index memory O(live entries).
		if w.smDepSlots > 2*w.smCached*(w.cfg.NumSM+2)+64 {
			w.rebuildSMDeps()
		}
	}
	return e
}

// walk computes the peer's placement from the ring: its manager set and
// padded mark and, with arcs set (a member of a ring of two or more), each
// ownership arc the walk consulted, a skip arc marked where self-ownership
// sent it clockwise. Filling the cache and checking a restored padded
// placement both walk through here.
func (w *World) walk(p id.ID, h arena.Ordinal, arcs bool) (*smCacheEntry, error) {
	e := &smCacheEntry{}
	var track func(key, owner id.ID)
	if arcs {
		e.deps = make([]smDep, 0, w.cfg.NumSM+2)
		track = func(key, owner id.ID) {
			n := len(e.deps)
			skip := key == p && n > 0 && !e.deps[n-1].skip && e.deps[n-1].owner == h
			e.deps = append(e.deps, smDep{key: key, owner: w.handles.Intern(owner), skip: skip})
		}
	}
	sms, err := w.ring.ScoreManagersTracked(p, w.cfg.NumSM, track)
	if err != nil {
		return nil, err
	}
	e.sms, e.padded = sms, cycled(sms)
	return e, nil
}

// cycled reports whether a manager set repeats its managers, as placement
// pads it when fewer than numSM distinct owners exist: the last manager
// then repeats an earlier one.
func cycled(sms []id.ID) bool {
	n := len(sms)
	return n > 1 && id.Contains(sms[:n-1], sms[n-1])
}

// indexDeps appends the entry's dependency owners to the owner index.
func (w *World) indexDeps(p arena.Ordinal, e *smCacheEntry) {
	for i, d := range e.deps {
		// Owners repeat back-to-back (a replica arc followed by a
		// self-skip arc, or consecutive replicas on one owner); skip
		// the adjacent duplicates cheaply, tolerate the rest — the
		// index is advisory and scans dedupe via the entry itself.
		if i > 0 && d.owner == e.deps[i-1].owner {
			continue
		}
		sl := w.slotAt(d.owner)
		sl.smDeps = append(sl.smDeps, p)
		w.smDepSlots++
	}
}

// rebuildSMDeps drops every stale index slot by reindexing the live cache.
// The cache is walked in ascending identifier order, not in handle order:
// the index lists feed the join/leave repair scans, whose markRepDirty
// calls set the accumulation order of the sampled reputation sum, and a
// restored world numbers its handles afresh, so a walk in handle order
// would let a resumed run's float sum part from the uncut run's in its
// last ulps.
func (w *World) rebuildSMDeps() {
	for i := range w.slots {
		w.slots[i].smDeps = nil
	}
	w.smDepSlots = 0
	for _, h := range w.handles.SortedByID() {
		if e := w.cachedAt(h); e != nil {
			w.indexDeps(h, e)
		}
	}
}

// dependsOn reports whether the entry recorded owner as a dependency.
func (e *smCacheEntry) dependsOn(owner arena.Ordinal) bool {
	for _, d := range e.deps {
		if d.owner == owner {
			return true
		}
	}
	return false
}

// replay appends to sms the manager set the entry's recorded arcs pin for
// the peer at handle p: the placement loop's dedup/skip logic replayed
// over recorded owners, no ring queries and no hashing. It reports false
// when the arcs no longer pin the placement: a self-skip would be needed
// that was never recorded, or dedup merged owners below numSM, so the
// real walk would examine further replicas.
func (w *World) replay(p arena.Ordinal, e *smCacheEntry, sms []id.ID) ([]id.ID, bool) {
	numSM := w.cfg.NumSM
	for i := 0; i < len(e.deps) && len(sms) < numSM; i++ {
		d := e.deps[i]
		if d.skip {
			continue // consumed via lookahead below when still reachable
		}
		eff := d.owner
		if eff == p {
			// Self-owned arc: the effective manager is the recorded
			// clockwise skip, if the walk took one.
			if i+1 >= len(e.deps) || !e.deps[i+1].skip {
				return sms, false
			}
			eff = e.deps[i+1].owner
		}
		if n, _ := w.handles.ID(eff); !id.Contains(sms, n) {
			sms = append(sms, n)
		}
	}
	return sms, len(sms) >= numSM
}

// rebuildEntry recomputes the entry's manager set purely from its patched
// dependency arcs (replay). It returns false when the recorded arcs no
// longer pin the placement; the caller evicts and the next use
// recomputes from the ring.
//
// A repair usually swaps one manager, so managers that stay keep their
// reference and only entrants resolve a slot, through the peer's handle.
// A manager that left drops the peer's slot if it never received
// evidence: nothing else references a placeholder, which would otherwise
// last until the peer is forgotten.
//
// The new set and references are built in world-owned scratch, because
// the old ones are read to carry references over and to drop
// placeholders, and then copied into the entry's own arrays. Writing in
// place is safe because no holder of a ScoreManagers result keeps it
// across a ring join or leave, and repairs run only inside one (DESIGN.md,
// "Performance model", lists every holder).
func (w *World) rebuildEntry(p arena.Ordinal, e *smCacheEntry) bool {
	if e.padded {
		return false
	}
	sms, ok := w.replay(p, e, w.smScratch[:0])
	w.smScratch = sms
	if !ok {
		return false
	}
	refs := w.refScratch[:0]
	for _, n := range sms {
		if j := slices.Index(e.sms, n); j >= 0 {
			refs = append(refs, e.refs[j])
		} else {
			refs = append(refs, w.Store(n).RefHandle(p))
		}
	}
	w.refScratch = refs
	for j, n := range e.sms {
		if !id.Contains(sms, n) {
			e.refs[j].Store().DropPlaceholderHandle(p)
		}
	}
	e.sms = append(e.sms[:0], sms...)
	e.refs = append(e.refs[:0], refs...)
	return true
}

// evictEntry drops the cached placement at handle p; the next use
// recomputes it from the ring. Like a repair, it drops the evidence-free
// slots the placement's references pre-created (repeats in a padded set
// are no-ops).
func (w *World) evictEntry(p arena.Ordinal, e *smCacheEntry) {
	w.slots[p].sm = nil
	w.smCached--
	for _, r := range e.refs {
		r.Store().DropPlaceholderHandle(p)
	}
}

// noteRingJoin repairs the cached placements a new member invalidates. A
// join moves ownership only for keys on the arc between the joiner and its
// live successor, so only entries with a dependency ending at that
// successor can change — everything else stays cached, which is what keeps
// the hit rate high under sustained arrivals. Affected entries are patched
// in place (the captured arcs now end at the joiner) and their manager
// sets rebuilt from the recorded arcs without touching the ring; entries
// the patch cannot pin down are evicted instead. The successor's index
// list is compacted in the same pass.
func (w *World) noteRingJoin(x id.ID) {
	if w.ring.Size() == 2 {
		// Leaving the single-member regime: the first member's placement
		// was computed uncached (self-managed) and now changes, so requeue
		// everyone for the sampling flush by hand.
		for _, p := range w.admittedPeers {
			w.markRepDirty(w.handles.Intern(p.ID))
		}
	}
	succ, ok := w.ring.NextMember(x)
	if !ok || succ == x {
		return // first member: nothing was cached
	}
	sh, ok := w.handles.Get(succ)
	if !ok || int(sh) >= len(w.slots) || len(w.slots[sh].smDeps) == 0 {
		return
	}
	peers := w.slots[sh].smDeps
	xh := w.handles.Intern(x)
	live, joined := peers[:0], w.joinScratch[:0]
	for _, p := range peers {
		e := w.cachedAt(p)
		if e == nil || !e.dependsOn(sh) {
			continue // stale index entry from an evicted or refilled fill
		}
		patched := false
		for j := range e.deps {
			d := &e.deps[j]
			if d.owner != sh || d.key == succ {
				// d.key == succ: the key is owned by itself; no joiner
				// can take that ownership over.
				continue
			}
			if d.skip {
				// Skip arc (member, succ]: x becomes the new clockwise
				// neighbour iff it lands strictly inside.
				if x.Between(d.key, succ) {
					d.owner = xh
					patched = true
				}
			} else if x == d.key || x.Between(d.key, succ) {
				// Replica arc: x captures ownership iff x ∈ [key, succ).
				d.owner = xh
				patched = true
			}
		}
		if !patched {
			live = append(live, p)
			continue
		}
		// The manager set (and so the aggregate read) may change with the
		// patched arcs: requeue the peer for the sampling flush.
		w.markRepDirty(p)
		if w.rebuildEntry(p, e) {
			joined = append(joined, p)
			if e.dependsOn(sh) {
				live = append(live, p)
			}
		} else {
			w.evictEntry(p, e)
		}
	}
	w.joinScratch = joined
	if len(joined) > 0 {
		xs := w.slotAt(xh)
		xs.smDeps = append(xs.smDeps, joined...)
	}
	w.smDepSlots += len(joined) - (len(peers) - len(live))
	if len(live) == 0 {
		live = nil
	}
	w.slots[sh].smDeps = live
}

// noteRingLeave repairs or evicts the entries that depended on a departed
// member. Ownership moves only for keys the leaver owned — they fall to
// the leaver's live successor (captured before the leave) — and any entry
// that consulted those keys recorded the leaver as a dependency, so the
// affected set is exact. Patched entries whose arcs now degenerate (the
// successor is the peer itself, or dedup merges owners short of numSM)
// are evicted and recomputed on next use. The leaver's own placement and
// index list go with it.
func (w *World) noteRingLeave(x, succ id.ID) {
	xh, ok := w.handles.Get(x)
	if !ok || int(xh) >= len(w.slots) {
		return
	}
	if w.slots[xh].sm != nil {
		w.slots[xh].sm = nil
		w.smCached--
	}
	peers := w.slots[xh].smDeps
	if len(peers) == 0 {
		return
	}
	sh, _ := w.handles.Get(succ)
	for _, p := range peers {
		e := w.cachedAt(p)
		if e == nil || !e.dependsOn(xh) {
			continue
		}
		w.markRepDirty(p) // the manager set changes with the leaver's arcs
		if sh == p || sh == xh || w.ring.Size() <= 1 {
			w.evictEntry(p, e)
			continue
		}
		for j := range e.deps {
			if e.deps[j].owner == xh {
				e.deps[j].owner = sh
			}
		}
		if w.rebuildEntry(p, e) {
			ss := w.slotAt(sh)
			ss.smDeps = append(ss.smDeps, p)
			w.smDepSlots++
		} else {
			w.evictEntry(p, e)
		}
	}
	w.smDepSlots -= len(peers)
	w.slots[xh].smDeps = nil
}

// QueryReputation aggregates the peer's reputation across its current
// score managers, served from the placement cache's pre-resolved store
// slots. The boolean is false when no manager knows the peer.
func (w *World) QueryReputation(pid id.ID) (float64, bool) {
	return rocq.QueryRefs(w.smEntry(pid).refs)
}

// Store returns (allocating) the reputation store hosted at a node. Every
// store reports evidence mutations into the sampling dirty set, so the
// periodic mean only recomputes subjects that actually changed.
func (w *World) Store(node id.ID) *rocq.Store {
	s := w.ensureSlot(node)
	if s.store == nil {
		s.store = w.newStore()
	}
	return s.store
}

// newStore builds an empty store on the world's handle table, reporting
// evidence mutations into the sampling dirty set.
func (w *World) newStore() *rocq.Store {
	st := rocq.NewStoreOn(rocq.DefaultParams(), w.handles)
	st.SetOnChange(w.repDirty)
	return st
}

// storeAt returns the store hosted at a node without allocating one.
func (w *World) storeAt(node id.ID) (*rocq.Store, bool) {
	if s := w.slotOf(node); s != nil && s.store != nil {
		return s.store, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Setup.

// newPeerID numbers the next peer: the hash of "peer-<seq>-seed-<seed>",
// with the digits appended into a stack buffer, so naming a founder or
// an arrival allocates nothing.
func (w *World) newPeerID() id.ID {
	w.seq++
	var buf [64]byte
	name := append(buf[:0], "peer-"...)
	name = strconv.AppendInt(name, w.seq, 10)
	name = append(name, "-seed-"...)
	name = strconv.AppendUint(name, w.cfg.Seed, 10)
	return id.Hash(name)
}

// createFounders builds the initial community: cfg.NumInit cooperative
// peers, fracNaive of them naive introducers, all fully trusted.
func (w *World) createFounders() error {
	for i := 0; i < w.cfg.NumInit; i++ {
		pid := w.newPeerID()
		style := peer.AssignStyle(peer.Cooperative, w.cfg.FracNaive, w.behaveRand)
		p := w.newPeer(pid, peer.Cooperative, style)
		if err := w.attachNode(p); err != nil {
			return err
		}
		w.admit(p, 0)
		w.m.Founders++
	}
	// Founders start fully reputed; their score managers now exist, so
	// initialise their state.
	for _, p := range w.admittedPeers {
		for _, r := range w.smEntry(p.ID).refs {
			r.Init(w.cfg.FounderRep)
		}
	}
	return w.err
}

// attachNode joins a peer's node to the overlay under a fresh signing
// identity (it may become a score manager for others immediately). With
// cfg.NullSign the identity is the cheap null one — an explicit opt-out
// of the Ed25519 floor for huge sweeps.
func (w *World) attachNode(p *peer.Peer) error {
	var ident transport.Identity
	if w.cfg.NullSign {
		ident = w.nullKeys.Identity(p.ID)
	} else {
		signer, err := transport.NewSigner(w.keyRand.Split())
		if err != nil {
			return err
		}
		ident = signer
	}
	return w.attachNodeIdentity(p, ident)
}

// attachNodeIdentity is attachNode with a caller-supplied identity — the
// rejoin path re-attaches a departed peer under the identity it left
// with. When state migration is active the new node immediately pulls
// the records it now owns from the surviving replicas.
func (w *World) attachNodeIdentity(p *peer.Peer, ident transport.Identity) error {
	defer w.spans.Start("overlay-join")()
	if err := w.ring.Join(p.ID); err != nil {
		return fmt.Errorf("sim: joining overlay: %w", err)
	}
	w.noteRingJoin(p.ID)
	w.proto.RegisterPeer(p.ID, ident)
	w.ensureSlot(p.ID).pr = p
	if w.migrating() {
		w.migrateAfterJoin(p.ID)
	}
	return nil
}

// admit places a peer in the community: eligible as requester, respondent
// and introducer.
func (w *World) admit(p *peer.Peer, at sim.Tick) {
	p.JoinedAt = at
	w.admittedPeers = append(w.admittedPeers, p)
	h := w.handles.Intern(p.ID)
	s := w.slotAt(h)
	s.admitted = true
	w.topo.Add(p.ID)
	if p.Class == peer.Cooperative {
		w.m.CoopInSystem++
		// Seed the sampling cache at zero and let the flush pick up the
		// real value: the bootstrap credit (or founder Init) lands through
		// the store hooks and dirties the peer anyway.
		s.rep = 0
		w.markRepDirty(h)
	} else {
		w.m.UncoopInSystem++
	}
	if cs := w.cohortStats(p.Cohort); cs != nil {
		cs.InSystem++
	}
	if p.Plan != nil {
		// A plan-governed peer lives by its pre-drawn session; a plan
		// without one (cohort sessionDist "none") disables the clock.
		if p.Plan.Session > 0 {
			w.armSessionEnd(p, at, at+sim.Tick(p.Plan.Session))
		}
	} else if w.cfg.Churn.SessionMean > 0 {
		w.scheduleSessionEnd(p)
	}
}

// ---------------------------------------------------------------------------
// Lending protocol events.

func (w *World) onAdmitted(newcomer, introducer id.ID, at sim.Tick) {
	p := w.livePeer(newcomer)
	p.Introducer = introducer
	w.m.Pending--
	if s := w.slotOf(newcomer); s != nil && s.inFlight {
		w.m.AdmissionLatency.Observe(int64(at - s.arrivedAt))
		s.inFlight = false
	}
	w.record(telemetry.Admitted, newcomer, introducer, p.Class.String())
	w.admit(p, at)
	if p.Class == peer.Cooperative {
		w.m.AdmittedCoop++
	} else {
		w.m.AdmittedUncoop++
	}
	if cs := w.cohortStats(p.Cohort); cs != nil {
		cs.Admitted++
	}
	if w.cfg.StakeTimeout > 0 {
		// Arm the stake's audit deadline: if the audit has not settled it
		// by then, the timeout rule resolves it (lending.TimeoutStake is
		// a no-op on an already-terminal stake).
		w.engine.After(sim.Tick(w.cfg.StakeTimeout), w.kinds.stakeTimeout, peerPayload{Peer: newcomer})
	}
}

// stakeTimeoutEvent resolves the newcomer's stake by the timeout rule if
// the audit has not settled it.
func (w *World) stakeTimeoutEvent(payload any) {
	if w.err != nil {
		return
	}
	w.proto.TimeoutStake(payload.(peerPayload).Peer)
}

// onStakeResolved counts stake-lifecycle outcomes (the refund/strand
// counters the churn stats carry) and publishes them as events.
func (w *World) onStakeResolved(newcomer, introducer id.ID, state lending.StakeState, at sim.Tick) {
	switch state {
	case lending.StakeRefunded:
		w.m.Churn.StakesRefunded++
	case lending.StakeStranded:
		w.m.Churn.StakesStranded++
	}
	w.record(telemetry.StakeClosed, newcomer, introducer, state.String())
}

func (w *World) onRefused(newcomer, introducer id.ID, reason lending.Reason, at sim.Tick) {
	p := w.livePeer(newcomer)
	w.m.Pending--
	if s := w.slotOf(newcomer); s != nil {
		s.inFlight = false // refusals observe no admission latency
	}
	w.record(telemetry.Refused, newcomer, introducer, reason.String())
	coop := p.Class == peer.Cooperative
	switch reason {
	case lending.RefusedByIntroducer:
		if coop {
			w.m.RefusedSelectiveCoop++
		} else {
			w.m.RefusedSelectiveUncoop++
		}
	case lending.RefusedIntroducerRep, lending.RefusedProtocolFailure:
		if coop {
			w.m.RefusedRepCoop++
		} else {
			w.m.RefusedRepUncoop++
		}
	}
	// The refused peer leaves: it never became part of the community.
	// Its overlay node departs as well.
	w.detachNode(newcomer)
}

func (w *World) onAuditOutcome(newcomer, introducer id.ID, satisfactory bool, at sim.Tick) {
	if p := w.livePeer(newcomer); p != nil {
		w.m.AuditWait.Observe(int64(at - p.JoinedAt))
	}
	if satisfactory {
		w.m.AuditsSatisfied++
		w.record(telemetry.AuditOK, newcomer, introducer, "")
	} else {
		w.m.AuditsForfeited++
		w.record(telemetry.AuditFail, newcomer, introducer, "")
	}
}

func (w *World) onFlagged(pid id.ID, at sim.Tick) {
	w.m.FlaggedPeers++
	w.record(telemetry.Flagged, pid, id.ID{}, "duplicate introduction")
}

// detachNode removes a never-admitted peer's node from the overlay, the
// transport, and every per-node table, so refused or departed peers leave
// no residue: the placement cache and dependency index (its entry, plus
// any entry that had it as a score manager), the store it hosted (its node
// leaves the ring with its data, exactly Chord churn semantics — once it
// is no longer a member, no placement can reach that store again), and the
// peer table. It never held a topology slot: only admission adds one.
func (w *World) detachNode(pid id.ID) {
	defer w.spans.Start("overlay-leave")()
	if w.ring.Contains(pid) {
		// The departed peer's reputation slots in its current managers'
		// stores can never be queried again (only the peer's own
		// placement reads them); drop them. The placement is resolved
		// fresh and uncached — filling the cache for a peer about to
		// leave would be torn down again two lines later. Slots written
		// under an *older* placement that since migrated stay behind —
		// exactly the orphaned replicas a real DHT leaves on nodes that
		// lost responsibility.
		if sms, err := w.ring.ScoreManagers(pid, w.cfg.NumSM); err == nil {
			for _, n := range sms {
				if st, ok := w.storeAt(n); ok {
					st.Forget(pid)
				}
			}
		}
		// Under state migration, records this node hosted for *others*
		// are handed to the owners inheriting its arcs (a refused peer
		// leaves gracefully: its store participates in the pull).
		var records []handoffRecord
		if w.migrating() {
			records = w.captureHandoff([]leaver{{pid: pid, graceful: true}})
		}
		succ, _ := w.ring.NextMember(pid) // the heir of pid's arcs, read before the leave
		if err := w.ring.Leave(pid); err != nil {
			w.fail(fmt.Errorf("sim: detaching %s: %w", pid.Short(), err))
			return
		}
		w.noteRingLeave(pid, succ)
		w.applyHandoff(records)
	}
	w.proto.UnregisterPeer(pid)
	if s := w.slotOf(pid); s != nil {
		s.store = nil
		if p := s.pr; p != nil {
			s.pr = nil
			if s.departed == nil {
				w.peerSlab.Free(p)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Arrival process.

// scheduleNextArrival advances the continuous Poisson clock and schedules
// the next arrival event. The chain carries the arrival generation it was
// armed under: when ApplyDelta changes λ it bumps the generation, so an
// already-scheduled arrival from the old process aborts instead of firing
// at the stale rate.
func (w *World) scheduleNextArrival() {
	if w.replaying() {
		return // replayed arrivals are scheduled from the trace, not a clock
	}
	if w.wkProgram != nil {
		w.scheduleNextCandidate()
		return
	}
	if w.cfg.Lambda <= 0 {
		return
	}
	gen := w.arrivalGen
	w.arrClock += w.arrivalRand.Exp(w.cfg.Lambda)
	at := sim.Tick(w.arrClock)
	if at <= w.engine.Now() {
		// The tick grid caps arrivals at one per tick. Re-anchor the
		// continuous clock at the clamped time: otherwise a burst leaves
		// the clock behind real time and every subsequent draw clamps
		// too, spraying one arrival per tick regardless of λ until the
		// lagging clock catches up. Discarding the sub-tick residual
		// means rates at or above the cap saturate slightly below one
		// per tick (Exp-spaced gaps from the clamped time) — the
		// intended capped semantics; at the paper's rates (λ ≤ 0.2)
		// clamps are rare and the effect is far below run-to-run noise.
		at = w.engine.Now() + 1
		w.arrClock = float64(at)
	}
	w.engine.Schedule(at, w.kinds.arrival, genPayload{Gen: gen})
}

// arrivalEvent is the arrival armed under the payload's process
// generation: it aborts if a λ delta re-armed the chain since. Under a
// nonstationary rate program the event is a thinning candidate that may
// be discarded (see thinnedArrival); either way the chain re-arms.
func (w *World) arrivalEvent(payload any) {
	if payload.(genPayload).Gen != w.arrivalGen {
		return
	}
	if w.wkProgram != nil {
		w.thinnedArrival()
	} else {
		w.handleArrival()
	}
	w.scheduleNextArrival()
}

// rearmArrivals cancels any in-flight arrival chain and, if λ is positive
// and the workload is running, starts a fresh Poisson process from now.
// The continuous clock is reset unconditionally: a residual waiting time
// drawn under the old rate must not delay the first arrival of the new
// one.
func (w *World) rearmArrivals() {
	w.arrivalGen++
	if !w.started {
		return // Start will arm the (new-generation) chain
	}
	w.arrClock = float64(w.engine.Now())
	w.scheduleNextArrival()
}

// handleArrival creates one new peer and runs the admission path. With
// an active workload block the cohort mixer picks the peer's profile
// (see handleWorkloadArrival); the classic path draws class and style
// from the behaviour stream exactly as before.
func (w *World) handleArrival() {
	if w.workloadAssigning() {
		w.handleWorkloadArrival()
		return
	}
	class := peer.AssignArrivalClass(w.cfg.FracUncoop, w.behaveRand)
	style := peer.AssignStyle(class, w.cfg.FracNaive, w.behaveRand)
	p := w.newPeer(w.newPeerID(), class, style)
	w.finishArrival(p)
}

// finishArrival runs the admission path of a freshly created arrival —
// the shared tail of the classic, workload-generated and trace-replayed
// arrival paths.
func (w *World) finishArrival(p *peer.Peer) {
	if p.Class == peer.Cooperative {
		w.m.ArrivalsCoop++
	} else {
		w.m.ArrivalsUncoop++
	}
	if cs := w.cohortStats(p.Cohort); cs != nil {
		cs.Arrivals++
	}
	if w.wkRecorder != nil {
		w.wkRecorder.Record(workload.Event{
			At: int64(w.engine.Now()), Op: workload.OpArrival,
			Class: p.Class.String(), Style: p.Style.String(),
			Cohort: p.Cohort, Peer: p.ID.Short(), Plan: p.Plan,
		})
	}

	if !w.cfg.RequireIntroductions {
		// Baseline: admit immediately with the policy's bootstrap value.
		if err := w.attachNode(p); err != nil {
			w.fail(fmt.Errorf("sim: arrival: %w", err))
			return
		}
		for _, r := range w.smEntry(p.ID).refs {
			r.Init(w.policy.InitialReputation())
		}
		w.admit(p, w.engine.Now())
		if p.Class == peer.Cooperative {
			w.m.AdmittedCoop++
		} else {
			w.m.AdmittedUncoop++
		}
		if cs := w.cohortStats(p.Cohort); cs != nil {
			cs.Admitted++
		}
		return
	}

	// "The arriving peer chooses a potential introducer from the set of
	// peers that are already in the system", biased by topology.
	introducerID, ok := w.topo.Pick(id.ID{})
	if !ok {
		w.m.RefusedNoIntroducer++
		return
	}
	if err := w.attachNode(p); err != nil {
		w.fail(fmt.Errorf("sim: arrival: %w", err))
		return
	}
	introducer := w.livePeer(introducerID)
	w.record(telemetry.Arrival, p.ID, introducerID, p.Class.String())
	granted := introducer.WillIntroduce(p.Class, w.cfg.ErrSel, w.behaveRand)
	w.m.Pending++
	w.markInFlight(p.ID)
	w.proto.Begin(p.ID, introducerID, granted)
}

// markInFlight stamps the waiting-period start of a freshly attached
// arrival, observed by the admission-latency histogram at the outcome.
func (w *World) markInFlight(pid id.ID) {
	s := w.ensureSlot(pid)
	s.arrivedAt = w.engine.Now()
	s.inFlight = true
}

// ---------------------------------------------------------------------------
// Transaction workload.

// scheduleTransactions arms the once-per-tick transaction process,
// starting at tick 1.
func (w *World) scheduleTransactions() {
	w.engine.Schedule(1, w.kinds.transaction, nil)
}

// transactionEvent runs one transaction and re-arms the process.
func (w *World) transactionEvent(any) {
	w.transact()
	w.engine.After(1, w.kinds.transaction, nil)
}

// transact runs one resource transaction: uniform requester (demand-
// weighted when a workload cohort sets a demand rate), topology-biased
// respondent, serve decision by requester reputation, mutual feedback
// to score managers on completion.
func (w *World) transact() {
	n := len(w.admittedPeers)
	if n < 2 {
		return
	}
	requester := w.pickRequester(n)
	requesterID := requester.ID
	respondentID, ok := w.topo.Pick(requesterID)
	if !ok {
		return
	}
	respondent := w.livePeer(respondentID)

	reqEntry := w.smEntry(requesterID)
	rep, _ := rocq.QueryRefs(reqEntry.refs)
	serve := respondent.WillServe(rep, w.workloadRand)

	if respondent.Class == peer.Cooperative && !respondent.Defected(w.engine.Now()) {
		w.m.DecisionsByCoop++
		requesterGood := requester.BehavesWellAt(w.engine.Now())
		if serve == requesterGood {
			w.m.CorrectDecisions++
		}
	}
	if !serve {
		w.m.Denied++
		return
	}
	w.m.Served++
	if !requester.BehavesWellAt(w.engine.Now()) {
		w.m.ServedToUncoop++
	}

	// Completed transaction: each party records first-hand experience and
	// reports its opinion of the partner to the partner's score managers.
	w.report(requester, respondent, w.smEntry(respondentID))
	w.report(respondent, requester, reqEntry)

	w.noteCompleted(requester)
	w.noteCompleted(respondent)
}

// report sends rater's updated opinion about subject to subject's score
// managers (whose placement entry the caller already holds). Both
// identities resolve to handles once, not once per manager.
func (w *World) report(rater, subject *peer.Peer, subjectEntry *smCacheEntry) {
	now := w.engine.Now()
	rating := rater.RateAt(now, subject.BehavesWellAt(now))
	raterH := w.handles.Intern(rater.ID)
	op := rater.Opinions.RecordHandle(w.handles.Intern(subject.ID), rating)
	for _, ref := range subjectEntry.refs {
		ref.ReportHandle(raterH, op)
	}
}

// noteCompleted advances a peer's completed-transaction count and fires
// the admission audit at the threshold.
func (w *World) noteCompleted(p *peer.Peer) {
	p.Completed++
	if !p.Audited && p.Completed >= w.cfg.AuditTrans {
		p.Audited = true
		if !p.Introducer.IsZero() {
			w.proto.Audit(p.ID)
		}
	}
}

// Reputation returns a peer's aggregate reputation as its score managers
// currently see it.
func (w *World) Reputation(pid id.ID) float64 {
	v, _ := rocq.QueryRefs(w.smEntry(pid).refs)
	return v
}

// ---------------------------------------------------------------------------
// Sampling.

func (w *World) scheduleSampling() {
	w.engine.Schedule(0, w.kinds.sample, nil)
}

// sampleEvent records one sample and re-arms the process.
func (w *World) sampleEvent(any) {
	w.sample()
	w.engine.After(sim.Tick(w.cfg.SampleEvery), w.kinds.sample, nil)
}

// sample records the population counts and the mean cooperative
// reputation (the paper's Figure 2 series). The mean is served from the
// incremental sum maintained by the dirty set: only peers whose stored
// evidence (or placement) moved since the last sample are re-read, so
// the pass costs O(changed peers) instead of walking the whole
// population every interval.
func (w *World) sample() {
	defer w.spans.Start("sampling")()
	now := w.engine.Now()
	if last, ok := w.m.CoopCount.Last(); ok && last.T == int64(now) {
		return // closing sample coincides with a periodic one
	}
	w.m.CoopCount.Append(int64(now), float64(w.m.CoopInSystem))
	w.m.UncoopCount.Append(int64(now), float64(w.m.UncoopInSystem))

	w.flushDirtyRep()
	mean := 0.0
	if w.m.CoopInSystem > 0 {
		mean = w.repSum / float64(w.m.CoopInSystem)
	}
	w.m.CoopReputation.Append(int64(now), mean)

	if w.telem.Active() {
		at := int64(now)
		w.telem.Sample(telemetry.Sample{At: at, Series: "coop", Value: float64(w.m.CoopInSystem)})
		w.telem.Sample(telemetry.Sample{At: at, Series: "uncoop", Value: float64(w.m.UncoopInSystem)})
		w.telem.Sample(telemetry.Sample{At: at, Series: "coop-reputation", Value: mean})
		w.telem.Sample(telemetry.Sample{At: at, Series: "population", Value: float64(len(w.admittedPeers))})
	}
}

// markRepDirty queues the subject at handle h, whose aggregate reputation
// may have moved (evidence mutation, placement change, migration).
// Insertion order is preserved so the flush is deterministic.
func (w *World) markRepDirty(h arena.Ordinal) {
	s := w.slotAt(h)
	if s.dirty {
		return
	}
	s.dirty = true
	w.dirtyRep = append(w.dirtyRep, h)
}

// flushDirtyRep folds the dirty set into the running cooperative
// reputation sum. Subjects that are not admitted cooperative peers are
// simply discarded (their aggregate is not part of the sampled mean). An
// admitted peer is a ring member, so its placement is usually cached in
// its slot; only a miss resolves it by identifier.
func (w *World) flushDirtyRep() {
	for _, h := range w.dirtyRep {
		s := &w.slots[h] // markRepDirty gave the peer a slot
		s.dirty = false
		if p := s.pr; !s.admitted || p == nil || p.Class != peer.Cooperative {
			continue // nothing for the sampled mean to read
		}
		e := s.sm
		if e == nil {
			e = w.smEntry(s.pr.ID)
		}
		v, _ := rocq.QueryRefs(e.refs)
		s = &w.slots[h] // re-resolve: smEntry may grow the slots
		w.repSum += v - s.rep
		s.rep = v
	}
	w.dirtyRep = w.dirtyRep[:0]
}

// ---------------------------------------------------------------------------
// Run.

// Start arms the workload processes (transactions, arrivals, sampling)
// without advancing time. Run calls it implicitly; scripted scenarios call
// it once and then drive the clock with RunFor.
func (w *World) Start() {
	if w.started {
		return
	}
	w.started = true
	w.scheduleTransactions()
	if w.replaying() {
		w.scheduleReplay(0)
	} else {
		w.scheduleNextArrival()
	}
	w.scheduleNextDeparture()
	w.scheduleSampling()
}

// RunFor advances the simulation by n ticks. It returns the first
// run-path failure (overlay or transport errors surfaced by events), which
// stops the clock at the failing event.
func (w *World) RunFor(n sim.Tick) error {
	if n < 0 {
		//replend:allow nopanic API-misuse guard on the caller's own argument, before any simulation state is touched
		panic("world: negative RunFor duration")
	}
	if w.err != nil {
		return w.err // a failed world must not keep simulating
	}
	w.Start()
	w.engine.RunUntil(w.engine.Now() + n)
	return w.err
}

// Run executes the configured workload: cfg.NumTrans ticks of one
// transaction each, Poisson arrivals, periodic sampling. It returns the
// first run-path failure instead of panicking mid-run.
func (w *World) Run() error {
	if w.err != nil {
		return w.err // a failed world must not keep simulating
	}
	w.Start()
	w.engine.RunUntil(sim.Tick(w.cfg.NumTrans))
	if w.err != nil {
		return w.err
	}
	w.Finish()
	return w.err
}

// Finish records the closing time-series sample at the current tick.
// Callers that drive the clock themselves (scenarios, scripted examples)
// call it once at the end of the run; Run does so implicitly.
func (w *World) Finish() {
	w.sample()
}

// InjectArrival scripts the arrival of a specific peer: class and
// introduction style are chosen by the caller, as is the member asked for
// the introduction. The introducer applies its normal judgement. The new
// peer's identifier is returned; admission (or refusal) is reported
// through the usual metrics once the waiting period elapses. Used by the
// collusion experiment and the examples.
func (w *World) InjectArrival(class peer.Class, style peer.Style, introducerID id.ID) (id.ID, error) {
	introducer := w.livePeer(introducerID)
	if introducer == nil {
		return id.ID{}, fmt.Errorf("world: introducer %s not in the system", introducerID.Short())
	}
	p := w.newPeer(w.newPeerID(), class, style)
	if class == peer.Cooperative {
		w.m.ArrivalsCoop++
	} else {
		w.m.ArrivalsUncoop++
	}
	if err := w.attachNode(p); err != nil {
		return id.ID{}, err
	}
	w.record(telemetry.Arrival, p.ID, introducerID, p.Class.String())
	granted := introducer.WillIntroduce(p.Class, w.cfg.ErrSel, w.behaveRand)
	w.m.Pending++
	w.markInFlight(p.ID)
	w.proto.Begin(p.ID, introducerID, granted)
	return p.ID, nil
}

// InjectTraitor scripts the arrival of a reputation-milking peer: it
// behaves cooperatively until defectAt, then freerides and lies like an
// uncooperative peer. Used by the traitor extension experiment.
func (w *World) InjectTraitor(style peer.Style, introducerID id.ID, defectAt sim.Tick) (id.ID, error) {
	pid, err := w.InjectArrival(peer.Cooperative, style, introducerID)
	if err != nil {
		return id.ID{}, err
	}
	w.livePeer(pid).DefectAt = defectAt
	return pid, nil
}

// AdmittedPeers returns the identifiers of peers currently in the system,
// in admission order (copy).
func (w *World) AdmittedPeers() []id.ID {
	out := make([]id.ID, len(w.admittedPeers))
	for i, p := range w.admittedPeers {
		out[i] = p.ID
	}
	return out
}
