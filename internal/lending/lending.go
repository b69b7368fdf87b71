// Package lending implements the paper's contribution: the reputation
// lending protocol by which an existing community member ("introducer")
// stakes a slice of its own reputation to bootstrap a new entrant.
//
// Protocol, following §2–§3 of the paper:
//
//  1. An arriving peer asks one existing member for an introduction. A
//     waiting period T must elapse between the request and the response,
//     whatever the decision, so the newcomer cannot usefully bombard the
//     community with concurrent requests.
//  2. If the introducer grants the request, it sends a *signed* lend order
//     to its own score managers: deduct introAmt from my reputation and
//     credit it to the newcomer. The order carries both identities and a
//     unique nonce so duplicates are rejected.
//  3. Each of the introducer's score managers debits the stake and
//     forwards a credit carrying the same signed order to every score
//     manager of the newcomer — full bipartite fan-out, so a single
//     crashed manager cannot lose the introduction.
//  4. A newcomer score manager applies the first credit it sees and
//     deduplicates the redundant copies by nonce. A credit bearing a
//     *different* nonce means the newcomer obtained two concurrent
//     introductions: its reputation is reset to zero and it is flagged
//     malicious.
//  5. After the newcomer completes auditTrans transactions its score
//     managers audit it. Satisfactory performance (reputation at or above
//     the audit threshold): the introducer's managers are told to return
//     the stake plus a reward, capped so reputation never exceeds 1.
//     Unsatisfactory: the introducer forfeits the stake (no message at
//     all is sent) and the newcomer's managers remove the lent amount,
//     flooring at 0.
//  6. Members whose reputation is below minIntroRep may not introduce
//     anyone; since minIntroRep > introAmt, lending can never drive a
//     reputation negative.
package lending

import (
	"bytes"
	"cmp"
	"crypto/ed25519"
	"errors"
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/id"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Params are the protocol constants (a slice of the paper's Table 1).
type Params struct {
	IntroAmt       float64  // reputation lent per introduction
	Reward         float64  // reward for introducing a cooperative peer
	MinIntroRep    float64  // reputation floor for acting as introducer
	AuditThreshold float64  // reputation deemed "satisfactory" at audit
	Wait           sim.Tick // waiting period T
	NumSM          int      // score managers per peer
}

// Validate checks the protocol constants.
func (p Params) Validate() error {
	switch {
	case p.IntroAmt <= 0 || p.IntroAmt > 1:
		return fmt.Errorf("lending: IntroAmt %v out of (0,1]", p.IntroAmt)
	case p.Reward < 0 || p.Reward > 1:
		return fmt.Errorf("lending: Reward %v out of [0,1]", p.Reward)
	case p.MinIntroRep <= p.IntroAmt:
		return fmt.Errorf("lending: MinIntroRep %v must exceed IntroAmt %v", p.MinIntroRep, p.IntroAmt)
	case p.AuditThreshold < 0 || p.AuditThreshold > 1:
		return fmt.Errorf("lending: AuditThreshold %v out of [0,1]", p.AuditThreshold)
	case p.Wait < 0:
		return fmt.Errorf("lending: negative wait period %d", p.Wait)
	case p.NumSM <= 0:
		return fmt.Errorf("lending: NumSM %d must be positive", p.NumSM)
	}
	return nil
}

// Network is the view of the community the protocol needs: current score
// manager placement and access to each node's reputation store. The
// simulation world implements it on top of the overlay ring.
type Network interface {
	// ScoreManagers returns the current score-manager node set for a peer.
	// The slice may be the network's own cache: it is valid until the
	// next ring join or leave, and must not be modified or kept past
	// one. The protocol reads each set before any event it triggers can
	// detach a node (a refusal detaches the newcomer only after the last
	// read).
	ScoreManagers(p id.ID) []id.ID
	// Store returns the reputation store hosted at the given node.
	Store(node id.ID) *rocq.Store
	// QueryReputation aggregates the peer's reputation across its current
	// score managers (rocq.QuerySet over their stores); false when no
	// manager knows the peer. Part of the interface so the network can
	// serve it from per-peer placement caches instead of a fresh
	// placement-plus-store walk per protocol decision.
	QueryReputation(p id.ID) (float64, bool)
}

// Reason classifies why an introduction attempt did not admit the peer.
type Reason int

// Refusal reasons; Fig. 4 and Fig. 6 plot the first two separately.
const (
	// RefusedByIntroducer: a selective introducer declined the newcomer.
	RefusedByIntroducer Reason = iota
	// RefusedIntroducerRep: the introducer agreed but its reputation is
	// below minIntroRep, so its score managers refuse the lend.
	RefusedIntroducerRep
	// RefusedProtocolFailure: the introducer left during the waiting
	// period, so nobody could sign the lend order, or no newcomer manager
	// took a credit because every introducer manager or every newcomer
	// manager had crashed.
	RefusedProtocolFailure
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case RefusedByIntroducer:
		return "refused-by-introducer"
	case RefusedIntroducerRep:
		return "refused-introducer-reputation"
	case RefusedProtocolFailure:
		return "refused-protocol-failure"
	}
	return fmt.Sprintf("Reason(%d)", int(r))
}

// Events receives protocol outcomes. Any nil callback is skipped.
type Events struct {
	// Admitted fires when the newcomer's bootstrap credit lands.
	Admitted func(newcomer, introducer id.ID, at sim.Tick)
	// Refused fires when an introduction attempt ends without admission.
	Refused func(newcomer, introducer id.ID, reason Reason, at sim.Tick)
	// AuditOutcome fires after the admission audit.
	AuditOutcome func(newcomer, introducer id.ID, satisfactory bool, at sim.Tick)
	// Flagged fires when a peer is caught soliciting duplicate
	// introductions.
	Flagged func(p id.ID, at sim.Tick)
	// StakeResolved fires when a stake leaves the pending state by any
	// path other than an ordinary settlement: refunded by the audit
	// timeout, or stranded (timeout with both parties gone, or a
	// satisfied audit whose introducer is gone for good).
	StakeResolved func(newcomer, introducer id.ID, state StakeState, at sim.Tick)
}

// Stats counts protocol activity. The mass fields are the stake-lifecycle
// ledger: every executed lend adds its amount to StakedMass and
// PendingMass, and every terminal transition moves exactly that amount
// from PendingMass into one of SettledMass, RefundedMass or StrandedMass,
// so StakedMass = SettledMass + RefundedMass + StrandedMass + PendingMass
// holds (to float addition error) at every instant.
type Stats struct {
	Requests          int64 // introduction requests begun
	Granted           int64 // introducer said yes (before the rep check)
	Admitted          int64
	RefusedSelective  int64
	RefusedRep        int64
	RefusedProtocol   int64
	AuditsSatisfied   int64 // stake returned + reward paid
	AuditsForfeited   int64 // stake lost, newcomer debited
	DuplicateAttempts int64 // newcomers punished for double introductions

	StakesRefunded int64 // stakes resolved by the audit timeout in a survivor's favour
	StakesStranded int64 // stakes lost with nobody to pay (counted, never silent)

	StakedMass   float64 // total reputation staked across executed lends
	SettledMass  float64 // closed by the audit (satisfied or forfeited)
	RefundedMass float64 // closed by the timeout in a survivor's favour
	StrandedMass float64 // lost: no surviving party could be paid
	PendingMass  float64 // still awaiting audit or timeout
}

// introRecord is the coordinator's note of one granted introduction: the
// stake behind the newcomer's admission, carrying its lifecycle state
// (see stake.go for the state machine).
type introRecord struct {
	introducer id.ID
	amount     float64
	nonce      uint64
	state      StakeState
}

// smLendState is the lending bookkeeping a score-manager node keeps
// across calls: the credits it accepted and the newcomers it flagged,
// each a column sorted by the newcomer's handle and grown by
// arena.InsertAt, as ROCQ's tables are. It is made by the first credit a
// node accepts or the first flag it sets, so every state holds one or
// the other. Each column is nil until its first write: most managers
// never see a double introduction.
type smLendState struct {
	bootNonce []nonceEntry    // accepted credits
	flagged   []arena.Ordinal // newcomers caught double-introducing
}

// nonceEntry is the nonce of the credit a manager accepted for one
// newcomer, 12 B: the uint64 is packed into an arena.Word.
type nonceEntry struct {
	newcomer arena.Ordinal
	nonce    arena.Word // uint64
}

// byNewcomer orders accepted credits by newcomer handle.
func byNewcomer(e nonceEntry, newcomer arena.Ordinal) int { return cmp.Compare(e.newcomer, newcomer) }

// nonce returns the nonce of the credit the manager accepted for the
// newcomer, and false if it accepted none.
func (st *smLendState) nonce(newcomer arena.Ordinal) (uint64, bool) {
	i, ok := slices.BinarySearchFunc(st.bootNonce, newcomer, byNewcomer)
	if !ok {
		return 0, false
	}
	return st.bootNonce[i].nonce.Uint64(), true
}

// lendSlot is the per-peer record of the protocol: the registered
// signing identity and the node's score-manager bookkeeping, flattened
// into one slice indexed by the peer's handle instead of two id-keyed
// maps. A registered identity is also the node's route: the fan-out
// delivers only to nodes whose slot holds one. Unregistering a peer
// zeroes its slot, which stays at its handle. Handle values never feed
// output bytes — export iterates ids in sorted order — so a restored
// protocol may sit at other handles without observable effect.
type lendSlot struct {
	ident transport.Identity
	sm    *smLendState
}

// Protocol is the lending coordinator plus the per-node score-manager
// logic. It is not safe for concurrent use (single-threaded simulation).
type Protocol struct {
	//replend:allow snapshotfields params come from config, which the world snapshot carries; New re-derives them on restore
	params Params
	//replend:allow snapshotfields wiring, re-injected by the restoring world at construction
	engine *sim.Engine
	//replend:allow snapshotfields wiring, re-injected by the restoring world at construction
	bus *transport.Bus
	//replend:allow snapshotfields wiring, re-injected by the restoring world at construction
	net Network
	//replend:allow snapshotfields wiring, re-injected by the restoring world at construction
	events Events
	//replend:allow snapshotfields registered by New on the engine; pending waiting-period events cross a checkpoint by kind name
	refuseKind sim.Kind
	//replend:allow snapshotfields registered by New on the engine; pending waiting-period events cross a checkpoint by kind name
	lendKind sim.Kind

	// slots holds identities and score-manager state in flat memory,
	// indexed by handles from the table the protocol shares with its world
	// (see lendSlot). smCount tracks how many slots hold manager state.
	//replend:allow snapshotfields handle table, not state: the restoring world rebuilds it, and export maps handles back to ids
	handles *arena.Ordinals
	slots   []lendSlot
	//replend:allow snapshotfields derived slot-occupancy counter; restore re-creates SM lending state on demand, which recounts it
	smCount int

	intro   map[id.ID]*introRecord
	flagged map[id.ID]bool

	// lastSig remembers the last signature the protocol produced or fully
	// verified, with the order and key it covers (a hit must match all
	// three — a memo by signature alone would let a tampered order ride on
	// a verified signature). The bipartite fan-out re-delivers the same
	// envelope O(numSM²) times per introduction; verifying each copy
	// afresh would make Ed25519 dominate the simulation. One entry is
	// enough: every copy arrives inside the call that sent it, so every
	// copy a receiver verifies was signed inside the same fan-out, after
	// any other signature.
	//replend:allow snapshotfields pure verification memo: dropping it on restore re-verifies the same envelopes to the same results
	lastSig verifiedSig

	// credited lists the introducer managers a satisfied audit has paid,
	// reused from audit to audit (see Audit).
	//replend:allow snapshotfields scratch list, empty between audits
	credited []id.ID

	// retainStakes keeps departed newcomers' stake records on the books
	// so the audit-timeout clock can still resolve them; the world sets
	// it exactly when a stake timeout is configured (see stake.go).
	//replend:allow snapshotfields derived from config.StakeTimeout, which the world snapshot carries; restore re-applies it
	retainStakes bool

	// spans, when set, times the lend fan-out (wall clock only — the
	// recorder is write-only from the protocol's side, so instrumentation
	// can never alter an outcome).
	//replend:allow snapshotfields observability-only wall-clock span recorder, re-attached by the caller after restore
	spans *telemetry.Spans

	nonce uint64
	stats Stats
}

// New builds a protocol instance over the given substrate. Its per-peer
// slots sit at the handles of the given table, which the network's world
// shares with its stores and opinion books.
func New(params Params, engine *sim.Engine, bus *transport.Bus, net Network, handles *arena.Ordinals, events Events) (*Protocol, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if engine == nil || bus == nil || net == nil || handles == nil {
		return nil, errors.New("lending: engine, bus, net and handles are all required")
	}
	p := &Protocol{
		params:  params,
		engine:  engine,
		bus:     bus,
		net:     net,
		events:  events,
		handles: handles,
		intro:   make(map[id.ID]*introRecord),
		flagged: make(map[id.ID]bool),
	}
	p.refuseKind = engine.Handle("intro-refuse", p.refuseEvent)
	p.lendKind = engine.Handle("intro-lend", p.lendEvent)
	return p, nil
}

// ensureSlot returns pid's slot, interning its handle and growing the
// slots up to it (zeroed) if the peer has none. The returned pointer is
// only valid until the next growth — callers use it immediately.
func (p *Protocol) ensureSlot(pid id.ID) *lendSlot {
	h := p.handles.Intern(pid)
	if n := int(h) + 1; n > len(p.slots) {
		p.slots = append(p.slots, make([]lendSlot, n-len(p.slots))...)
	}
	return &p.slots[h]
}

// slotOf returns pid's slot without making one, nil when it has none.
func (p *Protocol) slotOf(pid id.ID) *lendSlot {
	if h, ok := p.handles.Get(pid); ok && int(h) < len(p.slots) {
		return &p.slots[h]
	}
	return nil
}

// identityOf returns the registered signing identity held in pid's slot.
func (p *Protocol) identityOf(pid id.ID) (transport.Identity, bool) {
	if slot := p.slotOf(pid); slot != nil && slot.ident != nil {
		return slot.ident, true
	}
	return nil, false
}

// verifiedSig is a signature with the order and key it was produced or
// verified over. It holds the envelope's own Sig slice, which no holder
// of an envelope writes to; LendOrder is a comparable struct, so the hit
// check is a plain equality plus two byte comparisons — no encoding, no
// allocation.
type verifiedSig struct {
	sig   []byte
	order transport.LendOrder
	pub   ed25519.PublicKey
}

// sign produces a signed envelope for the order and memoizes it: a
// signature this process just produced with a registered key is valid by
// construction, so the receiving score managers need not redo the
// Ed25519 math. Envelopes built any other way (forged, tampered, replayed
// under a different order) miss the memo and are verified in full. Null
// identities produce signatureless envelopes, which bypass the memo
// entirely (there is nothing to memoize).
func (p *Protocol) sign(ident transport.Identity, order transport.LendOrder) transport.Envelope {
	env := ident.Sign(order)
	if len(env.Sig) > 0 {
		p.lastSig = verifiedSig{sig: env.Sig, order: order, pub: env.Pub}
	}
	return env
}

// verifyEnv verifies an envelope against the registered identity of
// claimedBy, memoizing a successful signature check (the key-binding
// check against the registered identity is repeated every time; only the
// Ed25519 math is memoized). An unregistered sender fails.
func (p *Protocol) verifyEnv(env transport.Envelope, claimedBy id.ID) bool {
	ident, ok := p.identityOf(claimedBy)
	if !ok || !ident.PublicEquals(env.Pub) {
		return false
	}
	if len(env.Sig) > 0 {
		if v := &p.lastSig; bytes.Equal(v.sig, env.Sig) && v.order == env.Order && v.pub.Equal(env.Pub) {
			return true
		}
	}
	if ident.VerifyEnvelope(env) {
		if len(env.Sig) > 0 {
			p.lastSig = verifiedSig{sig: env.Sig, order: env.Order, pub: env.Pub}
		}
		return true
	}
	return false
}

// SetSpans attaches a wall-clock span recorder to the protocol's lend
// fan-out; nil detaches it. Observability only: nothing the protocol
// decides can depend on it.
func (p *Protocol) SetSpans(s *telemetry.Spans) { p.spans = s }

// Stats returns a copy of the protocol counters.
func (p *Protocol) Stats() Stats { return p.stats }

// Params returns the protocol constants currently in force.
func (p *Protocol) Params() Params { return p.params }

// SetParams replaces the protocol constants mid-run, after validating
// them. Introductions already in their waiting period keep the wait they
// were scheduled with; every later decision (reputation floor, lend
// amount, reward, audit threshold) uses the new values. This is the hook
// scenario phases use for policy flips and parameter sweeps on a live
// community.
func (p *Protocol) SetParams(params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if params.NumSM != p.params.NumSM {
		return errors.New("lending: NumSM cannot change mid-run (score-manager placement is structural)")
	}
	p.params = params
	return nil
}

// RegisterPeer records a member's signing identity, which makes its node
// a recipient of the fan-out (every member can become a score manager for
// someone), and clears the node's crash flag: a registering node is up.
// A rejoining peer re-registers with the identity it departed with.
func (p *Protocol) RegisterPeer(pid id.ID, ident transport.Identity) {
	p.ensureSlot(pid).ident = ident
	p.bus.Recover(pid)
}

// Reserve makes room for n more slots, so registering a restored
// community's members grows the slots once instead of step by step.
func (p *Protocol) Reserve(n int) {
	p.slots = slices.Grow(p.slots, n)
}

// Identity returns the registered signing identity of a member. The
// world stashes it across a departure, so a rejoining peer keeps its key,
// and writes it into the peer's checkpoint record: the protocol's own
// state carries no identities.
func (p *Protocol) Identity(pid id.ID) (transport.Identity, bool) {
	return p.identityOf(pid)
}

// UnregisterPeer forgets a departed member's signing identity and its
// score-manager state, and clears its node's crash flag. The identity
// and the state are unreachable once the node has left the overlay — no
// placement returns it, so no message can arrive — but without eviction
// a high-refusal workload accretes one signer and one manager state per
// refused peer forever.
func (p *Protocol) UnregisterPeer(pid id.ID) {
	if h, ok := p.handles.Get(pid); ok && int(h) < len(p.slots) {
		slot := &p.slots[h]
		if slot.sm != nil {
			p.smCount--
		}
		*slot = lendSlot{}
	}
	p.bus.Recover(pid)
	// Departed peers keep no intro record: a rejoin re-admits through its
	// surviving reputation, not through the old introduction, and refused
	// peers must not leak records. The flagged set is deliberately kept:
	// it is punishment history, so it outlives the peer. With a stake
	// timeout configured the record survives the departure instead — the
	// timeout clock must still be able to refund the introducer — and the
	// world's TTL expiry drops it later.
	if !p.retainStakes {
		delete(p.intro, pid)
	}
}

// RegisteredPeers returns the number of signing identities on record
// (leak instrumentation for tests), counted over the slots.
func (p *Protocol) RegisteredPeers() int {
	n := 0
	for i := range p.slots {
		if p.slots[i].ident != nil {
			n++
		}
	}
	return n
}

// ManagerStates returns the number of per-node score-manager lending
// states on record (leak instrumentation for tests).
func (p *Protocol) ManagerStates() int { return p.smCount }

// ArenaSlots reports the protocol's per-peer memory: how many slots
// exist, one per handle up to the highest a registration or manager
// state has touched, and how many identities the shared handle table
// holds. Neither ever shrinks; an unregistered peer's slot stays, zeroed.
func (p *Protocol) ArenaSlots() (slots, handles int) {
	return len(p.slots), p.handles.Len()
}

// smState returns the lending state of a node, making it on first use:
// only a credit the node accepts, a flag it sets or a restored record
// reaches here.
func (p *Protocol) smState(node id.ID) *smLendState {
	slot := p.ensureSlot(node)
	if slot.sm == nil {
		slot.sm = &smLendState{}
		p.smCount++
	}
	return slot.sm
}

// Begin starts one introduction attempt: the newcomer has asked the given
// introducer, whose decision is already known (granted). Nothing is
// revealed to the newcomer until the waiting period elapses; then either
// the refusal is delivered or the lend executes. Both events carry the
// pair as an IntroWait payload.
func (p *Protocol) Begin(newcomer, introducer id.ID, granted bool) {
	p.stats.Requests++
	wait := IntroWait{Newcomer: newcomer, Introducer: introducer}
	if !granted {
		p.engine.After(p.params.Wait, p.refuseKind, wait)
		return
	}
	p.stats.Granted++
	p.engine.After(p.params.Wait, p.lendKind, wait)
}

// refuseEvent is the "intro-refuse" handler: the waiting period of a
// declined request elapsed, so the refusal is delivered.
func (p *Protocol) refuseEvent(payload any) {
	w := payload.(IntroWait)
	p.stats.RefusedSelective++
	p.emitRefused(w.Newcomer, w.Introducer, RefusedByIntroducer)
}

// lendEvent is the "intro-lend" handler: the waiting period of a granted
// request elapsed, so the lend executes.
func (p *Protocol) lendEvent(payload any) {
	w := payload.(IntroWait)
	p.executeLend(w.Newcomer, w.Introducer)
}

func (p *Protocol) emitRefused(newcomer, introducer id.ID, reason Reason) {
	if p.events.Refused != nil {
		p.events.Refused(newcomer, introducer, reason, p.engine.Now())
	}
}

// executeLend runs step 2–4 of the protocol at the end of the waiting
// period.
func (p *Protocol) executeLend(newcomer, introducer id.ID) {
	defer p.spans.Start("lending-fanout")()
	rep, known := p.net.QueryReputation(introducer)
	if !known || rep < p.params.MinIntroRep {
		p.stats.RefusedRep++
		p.emitRefused(newcomer, introducer, RefusedIntroducerRep)
		return
	}
	introSMs := p.net.ScoreManagers(introducer)

	signer, ok := p.identityOf(introducer)
	if !ok {
		// The introducer departed during the waiting period: nobody can
		// sign the lend order, so the attempt fails like any other
		// protocol breakdown.
		p.stats.RefusedProtocol++
		p.emitRefused(newcomer, introducer, RefusedProtocolFailure)
		return
	}
	p.nonce++
	order := transport.LendOrder{
		Introducer: introducer,
		NewPeer:    newcomer,
		Amount:     p.params.IntroAmt,
		Nonce:      p.nonce,
	}
	env := p.sign(signer, order)

	// Each of the introducer's managers debits the stake and fans the
	// credit out before the next one hears the lend. A padded set repeats
	// managers: a repeat is counted like any message but debits nothing.
	for i, node := range introSMs {
		if p.deliver(node) && !id.Contains(introSMs[:i], node) {
			p.onLend(node, env)
		}
	}

	// Admission check: did any of the newcomer's managers accept a credit?
	// A manager that holds no state accepted none, and a newcomer no
	// credit interned has handle None, which no manager holds a credit
	// for.
	nh, _ := p.handles.Get(newcomer)
	accepted := false
	for _, smNode := range p.net.ScoreManagers(newcomer) {
		if slot := p.slotOf(smNode); slot != nil && slot.sm != nil {
			if n, ok := slot.sm.nonce(nh); ok && n == order.Nonce {
				accepted = true
				break
			}
		}
	}
	if p.flagged[newcomer] {
		// The duplicate-introduction punishment fired during this fan-out;
		// the peer is not admitted whatever else happened.
		return
	}
	if !accepted {
		p.stats.RefusedProtocol++
		p.emitRefused(newcomer, introducer, RefusedProtocolFailure)
		return
	}
	p.intro[newcomer] = &introRecord{introducer: introducer, amount: order.Amount, nonce: order.Nonce}
	p.stats.StakedMass += order.Amount
	p.stats.PendingMass += order.Amount
	p.stats.Admitted++
	if p.events.Admitted != nil {
		p.events.Admitted(newcomer, introducer, p.engine.Now())
	}
}

// deliver counts one fan-out message to node on the bus and reports
// whether it arrives. Its route is a registered identity in node's slot:
// every member registers one, and a departed peer's is cleared.
func (p *Protocol) deliver(node id.ID) bool {
	_, routed := p.identityOf(node)
	return p.bus.Deliver(node, routed)
}

// onLend is the introducer's score manager receiving the signed order:
// verify, debit the stake and fan the credit, which carries the same
// signed order, out to every score manager of the newcomer.
func (p *Protocol) onLend(node id.ID, env transport.Envelope) {
	if !p.verifyEnv(env, env.Order.Introducer) {
		return // forged or tampered order: drop silently
	}
	p.net.Store(node).Debit(env.Order.Introducer, env.Order.Amount)
	nh := p.handles.Intern(env.Order.NewPeer)
	for _, sm := range p.net.ScoreManagers(env.Order.NewPeer) {
		if p.deliver(sm) {
			p.onCredit(sm, env, nh)
		}
	}
}

// onCredit is the newcomer's score manager receiving the bootstrap
// credit; nh is the newcomer's handle.
func (p *Protocol) onCredit(node id.ID, env transport.Envelope, nh arena.Ordinal) {
	if !p.verifyEnv(env, env.Order.Introducer) {
		return
	}
	st := p.smState(node)
	newcomer := env.Order.NewPeer
	f, flagged := slices.BinarySearch(st.flagged, nh)
	if flagged {
		return
	}
	i, credited := slices.BinarySearchFunc(st.bootNonce, nh, byNewcomer)
	if credited {
		if st.bootNonce[i].nonce.Uint64() == env.Order.Nonce {
			return // redundant copy of the same introduction
		}
		// Two different introductions for the same peer: "they realize
		// that the new peer is trying to gain unfair advantage and
		// therefore reduce its reputation to zero … and may flag it as a
		// malicious peer."
		st.flagged = arena.InsertAt(st.flagged, f, nh)
		p.net.Store(node).Zero(newcomer)
		if !p.flagged[newcomer] {
			p.flagged[newcomer] = true
			p.stats.DuplicateAttempts++
			if p.events.Flagged != nil {
				p.events.Flagged(newcomer, p.engine.Now())
			}
		}
		return
	}
	st.bootNonce = arena.InsertAt(st.bootNonce, i, nonceEntry{newcomer: nh, nonce: arena.Uint64Word(env.Order.Nonce)})
	p.net.Store(node).Credit(newcomer, env.Order.Amount)
}

// Audit runs the performance audit for a newcomer that has completed its
// auditTrans transactions (step 5). The caller (the simulation world)
// decides *when*; the protocol decides the outcome and the money movement.
// Auditing a peer that was never introduced, or twice, is a no-op.
func (p *Protocol) Audit(newcomer id.ID) {
	rec, ok := p.intro[newcomer]
	if !ok || rec.state != StakePending {
		// Never introduced, already audited, or closed by the audit
		// timeout — the double-settlement guard: an introducer that
		// rejoins after its stake was refunded must not also collect the
		// audit payout.
		return
	}

	rep, known := p.net.QueryReputation(newcomer)
	satisfactory := known && rep >= p.params.AuditThreshold
	newSMs := p.net.ScoreManagers(newcomer)

	if satisfactory {
		p.stats.AuditsSatisfied++
		if p.gone(rec.introducer) {
			// The introducer is gone for good: no longer registered and no
			// score manager holds any standing for it (its records were
			// dropped at the permanent departure). A stake return for such
			// a peer would fabricate zero-prior slots that resurrect it
			// one replica at a time and leak forever, so the stake is
			// simply stranded — the cost of leaving before the audit pays
			// out. A *live* introducer whose records were wiped out, and a
			// departed-but-rejoinable one whose records survive, are both
			// still paid.
			p.close(rec, StakeStranded)
			if p.events.StakeResolved != nil {
				p.events.StakeResolved(newcomer, rec.introducer, rec.state, p.engine.Now())
			}
			if p.events.AuditOutcome != nil {
				p.events.AuditOutcome(newcomer, rec.introducer, satisfactory, p.engine.Now())
			}
			return
		}
		p.close(rec, StakeSettled)
		// The newcomer's managers tell the introducer's managers to return
		// the stake and pay the reward, in the same bipartite fan-out as
		// the lend. Each manager signs with its own key (score managers are
		// ordinary peers and have one), and only on first need: an
		// introducer manager is credited once per audit, so a copy to one
		// already in credited is dropped before anything is signed, and
		// the redundant copies cost no signature.
		order := transport.LendOrder{
			Introducer: rec.introducer,
			NewPeer:    newcomer,
			Amount:     rec.amount,
			Nonce:      rec.nonce,
		}
		introSMs := p.net.ScoreManagers(rec.introducer)
		credited := p.credited[:0]
		for _, from := range newSMs {
			if p.bus.IsCrashed(from) {
				continue // a crashed manager cannot initiate the return
			}
			signer, ok := p.identityOf(from)
			if !ok {
				continue
			}
			var env transport.Envelope
			signed := false
			for _, node := range introSMs {
				if !p.deliver(node) || id.Contains(credited, node) {
					continue
				}
				if !signed {
					env, signed = p.sign(signer, order), true
				}
				if p.onReward(node, from, env) {
					credited = append(credited, node)
				}
			}
		}
		p.credited = credited
	} else {
		p.stats.AuditsForfeited++
		p.close(rec, StakeSettled)
		// "The introducer loses the lent reputation and no message to its
		// score managers is sent. The score managers of the new peer also
		// reduce the stored reputation of the new entrant by introAmt
		// subject to a minimum of 0."
		p.debitDistinct(newcomer, rec.amount)
	}
	if p.events.AuditOutcome != nil {
		p.events.AuditOutcome(newcomer, rec.introducer, satisfactory, p.engine.Now())
	}
}

// onReward is the introducer's score manager receiving the stake return
// that the newcomer's manager from signed after a satisfactory audit:
// credit introAmt + reward, "subject to the reputation not exceeding 1"
// (Credit clamps). It reports whether the return was credited.
func (p *Protocol) onReward(node, from id.ID, env transport.Envelope) bool {
	if !p.verifyEnv(env, from) {
		return false // the sender must be the peer whose key signed the return
	}
	p.net.Store(node).Credit(env.Order.Introducer, env.Order.Amount+p.params.Reward)
	return true
}
