package lending

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/id"
	"repro/internal/rng"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/transport"
)

// fakeNet is a Network with a fixed score-manager assignment.
type fakeNet struct {
	sms    map[id.ID][]id.ID
	stores map[id.ID]*rocq.Store
}

func newFakeNet() *fakeNet {
	return &fakeNet{sms: map[id.ID][]id.ID{}, stores: map[id.ID]*rocq.Store{}}
}

func (f *fakeNet) ScoreManagers(p id.ID) []id.ID { return f.sms[p] }

func (f *fakeNet) QueryReputation(p id.ID) (float64, bool) {
	stores := make([]*rocq.Store, 0, len(f.sms[p]))
	for _, n := range f.sms[p] {
		stores = append(stores, f.Store(n))
	}
	return rocq.QuerySet(stores, p)
}

func (f *fakeNet) Store(node id.ID) *rocq.Store {
	s, ok := f.stores[node]
	if !ok {
		s = rocq.NewStore(rocq.DefaultParams())
		f.stores[node] = s
	}
	return s
}

// assign gives a peer n dedicated score-manager nodes named after it.
func (f *fakeNet) assign(p id.ID, n int, tag string) []id.ID {
	nodes := make([]id.ID, n)
	for i := range nodes {
		nodes[i] = id.HashString(fmt.Sprintf("sm-%s-%d", tag, i))
	}
	f.sms[p] = nodes
	return nodes
}

// harness bundles a protocol under test with its collaborators.
type harness struct {
	t        *testing.T
	engine   *sim.Engine
	bus      *transport.Bus
	net      *fakeNet
	proto    *Protocol
	src      *rng.Source
	admitted []id.ID
	refused  []Reason
	audits   []bool
	flagged  []id.ID
}

func params() Params {
	return Params{
		IntroAmt:       0.1,
		Reward:         0.02,
		MinIntroRep:    0.5,
		AuditThreshold: 0.5,
		Wait:           1000,
		NumSM:          3,
	}
}

func newHarness(t *testing.T) *harness { return newHarnessWith(t, params()) }

// newHarnessWith builds a harness around custom protocol parameters —
// the equivalence property tests randomize NumSM across trials.
func newHarnessWith(t *testing.T, p Params) *harness {
	h := &harness{
		t:      t,
		engine: sim.NewEngine(),
		bus:    transport.NewBus(),
		net:    newFakeNet(),
		src:    rng.New(1),
	}
	events := Events{
		Admitted: func(n, i id.ID, at sim.Tick) { h.admitted = append(h.admitted, n) },
		Refused:  func(n, i id.ID, r Reason, at sim.Tick) { h.refused = append(h.refused, r) },
		AuditOutcome: func(n, i id.ID, ok bool, at sim.Tick) {
			h.audits = append(h.audits, ok)
		},
		Flagged: func(p id.ID, at sim.Tick) { h.flagged = append(h.flagged, p) },
	}
	proto, err := New(p, h.engine, h.bus, h.net, arena.NewOrdinals(), events)
	if err != nil {
		t.Fatal(err)
	}
	h.proto = proto
	return h
}

// addPeer registers a peer with signer and dedicated SMs, optionally
// initialising its reputation at every SM.
func (h *harness) addPeer(name string, rep float64) (id.ID, []id.ID) {
	pid := id.HashString("peer-" + name)
	sms := h.net.assign(pid, h.proto.params.NumSM, name)
	signer, err := transport.NewSigner(h.src.Split())
	if err != nil {
		h.t.Fatal(err)
	}
	h.proto.RegisterPeer(pid, signer)
	// SM nodes must be registered too, since the fan-out delivers only to
	// registered nodes; they are peers in the real world.
	for _, sm := range sms {
		if _, ok := h.net.stores[sm]; !ok {
			s, err := transport.NewSigner(h.src.Split())
			if err != nil {
				h.t.Fatal(err)
			}
			h.proto.RegisterPeer(sm, s)
		}
		if rep >= 0 {
			h.net.Store(sm).Init(pid, rep)
		}
	}
	return pid, sms
}

// repAt reads the mean reputation over the peer's SMs.
func (h *harness) repAt(pid id.ID) float64 {
	stores := make([]*rocq.Store, 0)
	for _, sm := range h.net.sms[pid] {
		stores = append(stores, h.net.Store(sm))
	}
	v, _ := rocq.QuerySet(stores, pid)
	return v
}

func TestParamsValidate(t *testing.T) {
	if err := params().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{IntroAmt: 0, Reward: 0.02, MinIntroRep: 0.5, AuditThreshold: 0.5, NumSM: 3},
		{IntroAmt: 0.1, Reward: -1, MinIntroRep: 0.5, AuditThreshold: 0.5, NumSM: 3},
		{IntroAmt: 0.1, Reward: 0.02, MinIntroRep: 0.1, AuditThreshold: 0.5, NumSM: 3},
		{IntroAmt: 0.1, Reward: 0.02, MinIntroRep: 0.5, AuditThreshold: 2, NumSM: 3},
		{IntroAmt: 0.1, Reward: 0.02, MinIntroRep: 0.5, AuditThreshold: 0.5, Wait: -1, NumSM: 3},
		{IntroAmt: 0.1, Reward: 0.02, MinIntroRep: 0.5, AuditThreshold: 0.5, NumSM: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestNewRequiresCollaborators(t *testing.T) {
	if _, err := New(params(), nil, nil, nil, nil, Events{}); err == nil {
		t.Fatal("nil collaborators accepted")
	}
}

func TestSuccessfulIntroduction(t *testing.T) {
	h := newHarness(t)
	intro, introSMs := h.addPeer("introducer", 1.0)
	newcomer, newSMs := h.addPeer("newcomer", -1) // no initial state

	h.proto.Begin(newcomer, intro, true)
	if len(h.admitted) != 0 {
		t.Fatal("admission before the waiting period")
	}
	h.engine.RunUntil(999)
	if len(h.admitted) != 0 {
		t.Fatal("admission one tick early")
	}
	h.engine.RunUntil(1000)
	if len(h.admitted) != 1 || h.admitted[0] != newcomer {
		t.Fatalf("admitted = %v", h.admitted)
	}

	// Introducer debited at every SM.
	for _, sm := range introSMs {
		v, _ := h.net.Store(sm).Query(intro)
		if math.Abs(v-0.9) > 1e-9 {
			t.Fatalf("introducer SM balance %v, want 0.9", v)
		}
	}
	// Newcomer credited exactly introAmt at every SM (duplicates ignored).
	for _, sm := range newSMs {
		v, ok := h.net.Store(sm).Query(newcomer)
		if !ok || math.Abs(v-0.1) > 1e-9 {
			t.Fatalf("newcomer SM balance %v (%v), want 0.1", v, ok)
		}
	}
	st := h.proto.Stats()
	if st.Requests != 1 || st.Granted != 1 || st.Admitted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if rec, ok := h.proto.intro[newcomer]; !ok || rec.introducer != intro {
		t.Fatal("introducer not recorded")
	}
}

func TestRefusalDeliveredAfterWait(t *testing.T) {
	h := newHarness(t)
	intro, _ := h.addPeer("introducer", 1.0)
	newcomer, _ := h.addPeer("newcomer", -1)

	h.proto.Begin(newcomer, intro, false)
	h.engine.RunUntil(999)
	if len(h.refused) != 0 {
		t.Fatal("refusal delivered early — newcomer should wait the full period")
	}
	h.engine.RunUntil(1000)
	if len(h.refused) != 1 || h.refused[0] != RefusedByIntroducer {
		t.Fatalf("refused = %v", h.refused)
	}
	if h.proto.Stats().RefusedSelective != 1 {
		t.Fatalf("stats = %+v", h.proto.Stats())
	}
	if h.repAt(newcomer) != 0 {
		t.Fatal("refused newcomer has reputation")
	}
}

func TestLowReputationIntroducerRefused(t *testing.T) {
	h := newHarness(t)
	intro, introSMs := h.addPeer("introducer", 0.3) // below MinIntroRep
	newcomer, _ := h.addPeer("newcomer", -1)

	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	if len(h.refused) != 1 || h.refused[0] != RefusedIntroducerRep {
		t.Fatalf("refused = %v", h.refused)
	}
	// No debit happened.
	for _, sm := range introSMs {
		if v, _ := h.net.Store(sm).Query(intro); math.Abs(v-0.3) > 1e-9 {
			t.Fatalf("introducer debited despite refusal: %v", v)
		}
	}
	if h.proto.Stats().RefusedRep != 1 {
		t.Fatalf("stats = %+v", h.proto.Stats())
	}
}

func TestExactlyMinIntroRepAllows(t *testing.T) {
	h := newHarness(t)
	intro, _ := h.addPeer("introducer", 0.5)
	newcomer, _ := h.addPeer("newcomer", -1)
	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	if len(h.admitted) != 1 {
		t.Fatal("introducer exactly at the floor must be allowed")
	}
}

func TestRedundancySurvivesCrashedIntroducerSM(t *testing.T) {
	h := newHarness(t)
	intro, introSMs := h.addPeer("introducer", 1.0)
	newcomer, newSMs := h.addPeer("newcomer", -1)

	h.bus.Crash(introSMs[0])
	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	if len(h.admitted) != 1 {
		t.Fatal("one crashed introducer SM prevented admission")
	}
	for _, sm := range newSMs {
		if v, ok := h.net.Store(sm).Query(newcomer); !ok || math.Abs(v-0.1) > 1e-9 {
			t.Fatalf("newcomer SM balance %v (%v)", v, ok)
		}
	}
}

func TestRedundancySurvivesCrashedNewcomerSM(t *testing.T) {
	h := newHarness(t)
	intro, _ := h.addPeer("introducer", 1.0)
	newcomer, newSMs := h.addPeer("newcomer", -1)

	h.bus.Crash(newSMs[0])
	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	if len(h.admitted) != 1 {
		t.Fatal("one crashed newcomer SM prevented admission")
	}
	// The crashed SM holds no state; the others do.
	if _, ok := h.net.Store(newSMs[0]).Query(newcomer); ok {
		t.Fatal("crashed SM received the credit")
	}
	for _, sm := range newSMs[1:] {
		if v, ok := h.net.Store(sm).Query(newcomer); !ok || math.Abs(v-0.1) > 1e-9 {
			t.Fatalf("surviving SM balance %v (%v)", v, ok)
		}
	}
}

// TestManagerStateHoldsACreditOrAFlag: a score manager keeps lending state
// only once it accepts a credit or sets a flag. A lend debits the
// introducer's managers, an audit credits them back and the admission
// check reads every manager of the newcomer, a crashed one included; none
// of that makes state, so the export writes no record that holds neither
// a boot nonce nor a flag.
func TestManagerStateHoldsACreditOrAFlag(t *testing.T) {
	h := newHarness(t)
	intro, introSMs := h.addPeer("introducer", 1.0)
	newcomer, newSMs := h.addPeer("newcomer", 0.8)
	h.bus.Crash(newSMs[0])
	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	h.bus.Recover(newSMs[0])
	for _, sm := range introSMs {
		h.net.Store(sm).Init(intro, 0.7)
	}
	h.proto.Audit(newcomer)
	if len(h.admitted) != 1 || len(h.audits) != 1 || !h.audits[0] {
		t.Fatalf("fixture: admitted %v, audits %v", h.admitted, h.audits)
	}
	st := h.proto.ExportState()
	if got, want := len(st.SM), len(newSMs)-1; got != want || h.proto.ManagerStates() != want {
		t.Errorf("%d manager records and %d states, want one per manager that accepted the credit (%d)", got, h.proto.ManagerStates(), want)
	}
	for _, rec := range st.SM {
		if len(rec.BootNonce) == 0 && len(rec.Flagged) == 0 {
			t.Errorf("manager %s exports a record with no boot nonce and no flag", rec.Node.Short())
		}
	}
}

func TestAllIntroducerSMsCrashedIsProtocolFailure(t *testing.T) {
	h := newHarness(t)
	intro, introSMs := h.addPeer("introducer", 1.0)
	newcomer, _ := h.addPeer("newcomer", -1)

	for _, sm := range introSMs {
		h.bus.Crash(sm)
	}
	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	if len(h.refused) != 1 || h.refused[0] != RefusedProtocolFailure {
		t.Fatalf("refused = %v", h.refused)
	}
	if h.proto.Stats().RefusedProtocol != 1 {
		t.Fatalf("stats = %+v", h.proto.Stats())
	}
}

func TestDuplicateIntroductionPunished(t *testing.T) {
	h := newHarness(t)
	introA, _ := h.addPeer("introducer-a", 1.0)
	introB, _ := h.addPeer("introducer-b", 1.0)
	newcomer, _ := h.addPeer("newcomer", -1)

	// The newcomer solicits both introducers inside one waiting period.
	h.proto.Begin(newcomer, introA, true)
	h.proto.Begin(newcomer, introB, true)
	h.engine.RunUntil(2000)

	if !h.proto.flagged[newcomer] {
		t.Fatal("double-introduced peer not flagged")
	}
	if len(h.flagged) != 1 || h.flagged[0] != newcomer {
		t.Fatalf("flagged events = %v", h.flagged)
	}
	if v := h.repAt(newcomer); v != 0 {
		t.Fatalf("double-introduced peer kept reputation %v, want 0", v)
	}
	if h.proto.Stats().DuplicateAttempts != 1 {
		t.Fatalf("stats = %+v", h.proto.Stats())
	}
}

func TestAuditSatisfactoryReturnsStakePlusReward(t *testing.T) {
	h := newHarness(t)
	intro, introSMs := h.addPeer("introducer", 1.0)
	newcomer, newSMs := h.addPeer("newcomer", -1)

	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	// Newcomer behaves well: simulate earned reputation above threshold.
	for _, sm := range newSMs {
		h.net.Store(sm).Init(newcomer, 0.8)
	}
	// Introducer spent some reputation meanwhile so the credit is visible
	// below the clamp.
	for _, sm := range introSMs {
		h.net.Store(sm).Init(intro, 0.7)
	}
	h.proto.Audit(newcomer)
	if len(h.audits) != 1 || !h.audits[0] {
		t.Fatalf("audits = %v", h.audits)
	}
	// Each introducer SM credited exactly once: 0.7 + 0.1 + 0.02 = 0.82.
	for _, sm := range introSMs {
		v, _ := h.net.Store(sm).Query(intro)
		if math.Abs(v-0.82) > 1e-9 {
			t.Fatalf("introducer SM balance %v, want 0.82 (stake+reward exactly once)", v)
		}
	}
	// Newcomer keeps its standing.
	if v := h.repAt(newcomer); math.Abs(v-0.8) > 1e-9 {
		t.Fatalf("newcomer reputation %v changed by satisfactory audit", v)
	}
	if h.proto.Stats().AuditsSatisfied != 1 {
		t.Fatalf("stats = %+v", h.proto.Stats())
	}
}

func TestAuditUnsatisfactoryForfeitsAndDebits(t *testing.T) {
	h := newHarness(t)
	intro, introSMs := h.addPeer("introducer", 1.0)
	newcomer, _ := h.addPeer("newcomer", -1)

	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	// Newcomer's earned reputation stays at the lent 0.1 (< threshold).
	before := h.repAt(newcomer)
	if math.Abs(before-0.1) > 1e-9 {
		t.Fatalf("setup: newcomer reputation %v", before)
	}
	h.proto.Audit(newcomer)
	if len(h.audits) != 1 || h.audits[0] {
		t.Fatalf("audits = %v", h.audits)
	}
	// "Reduce the stored reputation of the new entrant by introAmt subject
	// to a minimum of 0."
	if v := h.repAt(newcomer); v != 0 {
		t.Fatalf("newcomer reputation %v after forfeit, want 0", v)
	}
	// Introducer not repaid: still at 0.9.
	for _, sm := range introSMs {
		v, _ := h.net.Store(sm).Query(intro)
		if math.Abs(v-0.9) > 1e-9 {
			t.Fatalf("introducer SM balance %v, want 0.9 (stake lost)", v)
		}
	}
	if h.proto.Stats().AuditsForfeited != 1 {
		t.Fatalf("stats = %+v", h.proto.Stats())
	}
}

func TestAuditIdempotentAndUnknownNoop(t *testing.T) {
	h := newHarness(t)
	intro, introSMs := h.addPeer("introducer", 1.0)
	newcomer, newSMs := h.addPeer("newcomer", -1)
	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	for _, sm := range newSMs {
		h.net.Store(sm).Init(newcomer, 0.8)
	}
	for _, sm := range introSMs {
		h.net.Store(sm).Init(intro, 0.7)
	}
	h.proto.Audit(newcomer)
	h.proto.Audit(newcomer) // second must be a no-op
	for _, sm := range introSMs {
		v, _ := h.net.Store(sm).Query(intro)
		if math.Abs(v-0.82) > 1e-9 {
			t.Fatalf("double audit paid twice: %v", v)
		}
	}
	if len(h.audits) != 1 {
		t.Fatalf("audit events = %v", h.audits)
	}
	h.proto.Audit(id.HashString("nobody")) // unknown peer: no-op
	if len(h.audits) != 1 {
		t.Fatal("audit of unknown peer produced an event")
	}
}

// TestPaddedPlacementMovesEachStakeOnce: a padded manager set repeats a
// manager (the ring holds fewer than numSM other members), and every
// stake path must move the stake at that manager once. With the
// introducer on [a, a, b] and the newcomer on [c, c, d], the lend debits
// a and b once, a satisfied audit pays each once, and a forfeit debits c
// and d once.
func TestPaddedPlacementMovesEachStakeOnce(t *testing.T) {
	// lend builds the padded pair, with the introducer at 0.8, and runs
	// the lend.
	lend := func(t *testing.T) (h *harness, intro, newcomer id.ID, introSMs, newSMs []id.ID) {
		h = newHarness(t)
		intro, ab := h.addPeer("introducer", -1)
		newcomer, cd := h.addPeer("newcomer", -1)
		introSMs = []id.ID{ab[0], ab[0], ab[1]}
		newSMs = []id.ID{cd[0], cd[0], cd[1]}
		h.net.sms[intro], h.net.sms[newcomer] = introSMs, newSMs
		for _, sm := range introSMs[1:] {
			h.net.Store(sm).Init(intro, 0.8)
		}
		h.proto.Begin(newcomer, intro, true)
		h.engine.RunUntil(1000)
		if len(h.admitted) != 1 {
			t.Fatalf("admitted = %v", h.admitted)
		}
		return h, intro, newcomer, introSMs, newSMs
	}
	// expect checks the peer's reputation at each distinct manager.
	expect := func(t *testing.T, h *harness, pid id.ID, sms []id.ID, want float64, what string) {
		t.Helper()
		for _, sm := range sms[1:] {
			if v, _ := h.net.Store(sm).Query(pid); math.Abs(v-want) > 1e-9 {
				t.Fatalf("%s: manager %s reads %v, want %v", what, sm.Short(), v, want)
			}
		}
	}

	h, intro, newcomer, introSMs, newSMs := lend(t)
	expect(t, h, intro, introSMs, 0.7, "lend")
	for _, sm := range newSMs[1:] {
		h.net.Store(sm).Init(newcomer, 0.8)
	}
	h.proto.Audit(newcomer)
	if len(h.audits) != 1 || !h.audits[0] {
		t.Fatalf("audits = %v", h.audits)
	}
	expect(t, h, intro, introSMs, 0.82, "satisfied audit")

	h, _, newcomer, _, newSMs = lend(t)
	for _, sm := range newSMs[1:] {
		h.net.Store(sm).Init(newcomer, 0.3)
	}
	h.proto.Audit(newcomer)
	if len(h.audits) != 1 || h.audits[0] {
		t.Fatalf("audits = %v", h.audits)
	}
	expect(t, h, newcomer, newSMs, 0.2, "forfeit")
}

// countingIdentity is a signing identity that counts its signatures and
// its full signature verifications.
type countingIdentity struct {
	transport.Identity
	signs, verifies *int
}

func (c countingIdentity) Sign(o transport.LendOrder) transport.Envelope {
	*c.signs++
	return c.Identity.Sign(o)
}

func (c countingIdentity) VerifyEnvelope(env transport.Envelope) bool {
	*c.verifies++
	return c.Identity.VerifyEnvelope(env)
}

// TestSignatureMemoSkipsFullVerification checks the one-entry
// verification memo both ways. A lend and a satisfied audit with every
// manager live verify each copy of each envelope from the memo, with no
// Ed25519 verification at all. An envelope that carries the memoized
// signature over an order with another amount misses the memo, is
// verified in full and is dropped.
func TestSignatureMemoSkipsFullVerification(t *testing.T) {
	h := newHarness(t)
	intro, introSMs := h.addPeer("introducer", 1.0)
	newcomer, newSMs := h.addPeer("newcomer", -1)
	signs, verifies := 0, 0
	for _, pid := range append(append([]id.ID{intro, newcomer}, introSMs...), newSMs...) {
		ident, _ := h.proto.Identity(pid)
		h.proto.RegisterPeer(pid, countingIdentity{ident, &signs, &verifies})
	}
	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(1000)
	if len(h.admitted) != 1 {
		t.Fatalf("admitted = %v", h.admitted)
	}
	for _, sm := range newSMs {
		h.net.Store(sm).Init(newcomer, 0.8)
	}
	for _, sm := range introSMs {
		h.net.Store(sm).Init(intro, 0.7)
	}
	h.proto.Audit(newcomer)
	if len(h.audits) != 1 || !h.audits[0] {
		t.Fatalf("audits = %v", h.audits)
	}
	for _, sm := range introSMs {
		if v, _ := h.net.Store(sm).Query(intro); math.Abs(v-0.82) > 1e-9 {
			t.Fatalf("introducer SM balance %v, want 0.82", v)
		}
	}
	if verifies != 0 {
		t.Fatalf("a lend and a satisfied audit made %d full verifications, want 0", verifies)
	}

	// The memo now holds the stake return one of the newcomer's managers
	// signed. Its signature, over the same order at twice the amount, goes
	// from that manager to a node that has not credited this audit yet.
	memo := h.proto.lastSig
	from := -1
	for i, sm := range newSMs {
		if ident, _ := h.proto.Identity(sm); ident.PublicEquals(memo.pub) {
			from = i
		}
	}
	if len(memo.sig) == 0 || from < 0 {
		t.Fatal("no newcomer manager's signature is memoized after the audit")
	}
	forged := transport.Envelope{Order: memo.order, Pub: memo.pub, Sig: memo.sig}
	forged.Order.Amount *= 2
	node := id.HashString("fresh-manager")
	signer, err := transport.NewSigner(h.src.Split())
	if err != nil {
		t.Fatal(err)
	}
	h.proto.RegisterPeer(node, signer)
	if h.proto.onReward(node, newSMs[from], forged) {
		t.Fatal("onReward reports a stake return under an altered order credited")
	}
	if verifies != 1 {
		t.Fatalf("the altered order made %d full verifications, want 1", verifies)
	}
	if _, known := h.net.Store(node).Query(intro); known {
		t.Fatal("a stake return under an altered order was credited")
	}
}

func TestRewardCappedAtOne(t *testing.T) {
	h := newHarness(t)
	intro, introSMs := h.addPeer("introducer", 1.0)
	newcomer, newSMs := h.addPeer("newcomer", -1)
	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	for _, sm := range newSMs {
		h.net.Store(sm).Init(newcomer, 0.9)
	}
	// Introducer recouped to 1.0 by cooperating before the audit lands.
	for _, sm := range introSMs {
		h.net.Store(sm).Init(intro, 1.0)
	}
	h.proto.Audit(newcomer)
	for _, sm := range introSMs {
		v, _ := h.net.Store(sm).Query(intro)
		if v > 1 {
			t.Fatalf("reputation exceeded 1: %v", v)
		}
	}
}

func TestStakeConservationDuringLend(t *testing.T) {
	// During the loan (before audit) the introducer's aggregate loses
	// exactly what the newcomer's aggregate gains.
	h := newHarness(t)
	intro, _ := h.addPeer("introducer", 0.8)
	newcomer, _ := h.addPeer("newcomer", -1)
	beforeIntro := h.repAt(intro)
	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	lost := beforeIntro - h.repAt(intro)
	gained := h.repAt(newcomer)
	if math.Abs(lost-gained) > 1e-9 || math.Abs(lost-0.1) > 1e-9 {
		t.Fatalf("stake not conserved: introducer lost %v, newcomer gained %v", lost, gained)
	}
}

// TestUnregisteredIntroducerRefuses pins the churn-era semantics: an
// introducer with no registered signing identity at lend time (it
// departed during the waiting period) fails the introduction as a
// protocol breakdown instead of panicking the run.
func TestUnregisteredIntroducerRefuses(t *testing.T) {
	h := newHarness(t)
	ghost := id.HashString("ghost")
	h.net.assign(ghost, 3, "ghost")
	for _, sm := range h.net.sms[ghost] {
		h.net.Store(sm).Init(ghost, 1.0)
		s, _ := transport.NewSigner(h.src.Split())
		h.proto.RegisterPeer(sm, s)
	}
	newcomer, _ := h.addPeer("newcomer", -1)
	h.proto.Begin(newcomer, ghost, true)
	h.engine.RunUntil(2000)
	if len(h.admitted) != 0 {
		t.Fatalf("newcomer admitted through a signerless introducer")
	}
	if len(h.refused) != 1 || h.refused[0] != RefusedProtocolFailure {
		t.Fatalf("refusals = %v, want one RefusedProtocolFailure", h.refused)
	}
	if got := h.proto.Stats().RefusedProtocol; got != 1 {
		t.Fatalf("RefusedProtocol = %d, want 1", got)
	}
}

func TestReasonString(t *testing.T) {
	for _, r := range []Reason{RefusedByIntroducer, RefusedIntroducerRep, RefusedProtocolFailure} {
		if r.String() == "" {
			t.Fatal("empty reason string")
		}
	}
	if Reason(42).String() == "" {
		t.Fatal("unknown reason must render")
	}
}

// TestLendSlotSize pins a lending slot at three words, its identity and
// its manager-state pointer: every identity a run ever sees keeps one,
// so a field added to it is paid once per identity. It also pins a
// manager's boot-nonce record at 12 B, a handle and a packed nonce.
func TestLendSlotSize(t *testing.T) {
	if got, want := unsafe.Sizeof(lendSlot{}), 3*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("lendSlot is %d B, want %d", got, want)
	}
	if got := unsafe.Sizeof(nonceEntry{}); got != 12 {
		t.Fatalf("nonceEntry is %d B, want 12", got)
	}
}

// TestManagerColumnAllocations pins what a manager's accepted credits
// cost: 64 credits for distinct newcomers at one manager make its state
// once and its boot-nonce column four times (8, 16, 32 and 64 records),
// and leave the column in newcomer-handle order.
func TestManagerColumnAllocations(t *testing.T) {
	h := newHarness(t)
	var keys transport.NullKeys
	intro, manager := id.HashString("peer-introducer"), id.HashString("peer-manager")
	h.proto.RegisterPeer(intro, keys.Identity(intro))
	h.proto.RegisterPeer(manager, keys.Identity(manager))
	signer, _ := h.proto.identityOf(intro)
	store := h.net.Store(manager)
	envs := make([]transport.Envelope, 64)
	handles := make([]arena.Ordinal, len(envs))
	for i := range envs {
		newcomer := id.HashString(fmt.Sprintf("peer-newcomer-%d", i))
		handles[i] = h.proto.handles.Intern(newcomer)
		store.Init(newcomer, 0.5) // the credits then write into slots the store holds
		envs[i] = signer.Sign(transport.LendOrder{Introducer: intro, NewPeer: newcomer, Amount: 0.1, Nonce: uint64(i + 1)})
	}
	slot := h.proto.slotOf(manager)
	credits := testing.AllocsPerRun(20, func() {
		slot.sm, h.proto.smCount = nil, 0
		for i, env := range envs {
			h.proto.onCredit(manager, env, handles[i])
		}
	})
	if credits != 1+4 {
		t.Errorf("64 credits at one manager allocate %v objects, want 5 (the state and 4 column doublings)", credits)
	}
	col := slot.sm.bootNonce
	if len(col) != 64 || cap(col) != 64 {
		t.Fatalf("after 64 credits the boot-nonce column holds %d of %d, want 64 of 64", len(col), cap(col))
	}
	for i, e := range col {
		if e.newcomer != handles[i] || e.nonce.Uint64() != uint64(i+1) {
			t.Fatalf("boot-nonce record %d = (%d, %d), want (%d, %d)", i, e.newcomer, e.nonce.Uint64(), handles[i], i+1)
		}
	}
}
