package lending

import (
	"math"
	"testing"

	"repro/internal/id"
)

// admitThrough runs one full introduction and returns the parties.
func admitThrough(t *testing.T, h *harness) (intro, newcomer id.ID, introSMs, newSMs []id.ID) {
	t.Helper()
	intro, introSMs = h.addPeer("introducer", 1.0)
	newcomer, newSMs = h.addPeer("newcomer", -1)
	h.proto.Begin(newcomer, intro, true)
	h.engine.RunUntil(2000)
	if len(h.admitted) != 1 {
		t.Fatalf("setup: admitted = %v", h.admitted)
	}
	return intro, newcomer, introSMs, newSMs
}

// vanish makes a peer "gone for good" in the fake network: unregistered
// and with no current score manager knowing it (its manager set empties).
func (h *harness) vanish(pid id.ID) {
	h.proto.UnregisterPeer(pid)
	h.net.sms[pid] = nil
}

func TestStakeLifecycleStates(t *testing.T) {
	h := newHarness(t)
	_, newcomer, _, newSMs := admitThrough(t, h)
	if rec, ok := h.proto.intro[newcomer]; !ok || rec.state != StakePending {
		t.Fatalf("stake record after lend = %+v (%v), want pending", rec, ok)
	}
	ps := h.proto.Stats()
	if math.Abs(ps.StakedMass-0.1) > 1e-9 || math.Abs(ps.PendingMass-0.1) > 1e-9 {
		t.Fatalf("mass ledger after lend: %+v", ps)
	}
	for _, sm := range newSMs {
		h.net.Store(sm).Init(newcomer, 0.8)
	}
	h.proto.Audit(newcomer)
	if rec, ok := h.proto.intro[newcomer]; !ok || rec.state != StakeSettled {
		t.Fatalf("stake record after satisfied audit = %+v (%v), want settled", rec, ok)
	}
	ps = h.proto.Stats()
	if math.Abs(ps.SettledMass-0.1) > 1e-9 || math.Abs(ps.PendingMass) > 1e-9 {
		t.Fatalf("mass ledger after audit: %+v", ps)
	}
	// A timeout after settlement is a no-op.
	if _, resolved := h.proto.TimeoutStake(newcomer); resolved {
		t.Fatal("timeout resolved an already-settled stake")
	}
}

// TestStakeTimeoutRefundsIntroducer is the headline leak-closing case:
// the audit never settles (the newcomer stopped transacting — departed,
// or just slow) and at the deadline a surviving introducer gets its
// stake back while the newcomer's bootstrap credit unwinds.
func TestStakeTimeoutRefundsIntroducer(t *testing.T) {
	h := newHarness(t)
	intro, newcomer, introSMs, newSMs := admitThrough(t, h)
	state, resolved := h.proto.TimeoutStake(newcomer)
	if !resolved || state != StakeRefunded {
		t.Fatalf("timeout = %v (%v), want refunded", state, resolved)
	}
	// Introducer made whole at every manager: 0.9 + 0.1, no reward.
	for _, sm := range introSMs {
		v, _ := h.net.Store(sm).Query(intro)
		if math.Abs(v-1.0) > 1e-9 {
			t.Fatalf("introducer balance %v after refund, want 1.0 (stake back, no reward)", v)
		}
	}
	// Newcomer's bootstrap credit clawed back, flooring at 0.
	for _, sm := range newSMs {
		if v, _ := h.net.Store(sm).Query(newcomer); v != 0 {
			t.Fatalf("newcomer balance %v after clawback, want 0", v)
		}
	}
	ps := h.proto.Stats()
	if ps.StakesRefunded != 1 || math.Abs(ps.RefundedMass-0.1) > 1e-9 || math.Abs(ps.PendingMass) > 1e-9 {
		t.Fatalf("ledger after refund: %+v", ps)
	}
	// The deadline fired once; a second timeout is a no-op.
	if _, resolved := h.proto.TimeoutStake(newcomer); resolved {
		t.Fatal("second timeout resolved again")
	}
}

// TestStakeTimeoutForgivesWhenIntroducerGone: the introducer is gone for
// good (unregistered and unknown to every current manager), so there is
// nobody to repay — the surviving newcomer keeps the lent amount and the
// stake closes as refunded with no money movement.
func TestStakeTimeoutForgivesWhenIntroducerGone(t *testing.T) {
	h := newHarness(t)
	intro, newcomer, _, newSMs := admitThrough(t, h)
	h.vanish(intro)
	before := h.repAt(newcomer)
	state, resolved := h.proto.TimeoutStake(newcomer)
	if !resolved || state != StakeRefunded {
		t.Fatalf("timeout = %v (%v), want refunded (loan forgiven)", state, resolved)
	}
	if after := h.repAt(newcomer); math.Abs(after-before) > 1e-9 {
		t.Fatalf("forgiven loan moved the newcomer's reputation %v -> %v", before, after)
	}
	for _, sm := range newSMs {
		if v, ok := h.net.Store(sm).Query(newcomer); !ok || math.Abs(v-0.1) > 1e-9 {
			t.Fatalf("newcomer lost its lent amount: %v (%v)", v, ok)
		}
	}
}

// TestStakeTimeoutStrandsWhenBothGone: no surviving party — the stake is
// stranded, and counted.
func TestStakeTimeoutStrandsWhenBothGone(t *testing.T) {
	h := newHarness(t)
	h.proto.SetRetainStakes(true) // the record must survive the newcomer's departure
	intro, newcomer, _, _ := admitThrough(t, h)
	h.vanish(intro)
	h.vanish(newcomer)
	state, resolved := h.proto.TimeoutStake(newcomer)
	if !resolved || state != StakeStranded {
		t.Fatalf("timeout = %v (%v), want stranded", state, resolved)
	}
	ps := h.proto.Stats()
	if ps.StakesStranded != 1 || math.Abs(ps.StrandedMass-0.1) > 1e-9 {
		t.Fatalf("ledger after strand: %+v", ps)
	}
}

// TestRefundedStakeNotPaidTwice is the double-settlement guard: a stake
// refunded by the timeout must not also pay out when the introducer
// rejoins and the newcomer's audit later comes back satisfied. Without
// the guard the introducer would collect the stake twice (refund, then
// stake+reward).
func TestRefundedStakeNotPaidTwice(t *testing.T) {
	h := newHarness(t)
	h.proto.SetRetainStakes(true)
	intro, newcomer, introSMs, newSMs := admitThrough(t, h)

	// The introducer leaves for good before the audit; the timeout fires
	// and forgives the loan in the newcomer's favour.
	ident, _ := h.proto.Identity(intro)
	savedSMs := h.net.sms[intro]
	h.vanish(intro)
	if state, resolved := h.proto.TimeoutStake(newcomer); !resolved || state != StakeRefunded {
		t.Fatalf("timeout = %v (%v), want refunded", state, resolved)
	}

	// The introducer rejoins with its old identity and records, and the
	// newcomer completes a satisfactory audit.
	h.net.sms[intro] = savedSMs
	h.proto.RegisterPeer(intro, ident)
	for _, sm := range newSMs {
		h.net.Store(sm).Init(newcomer, 0.9)
	}
	before := make([]float64, len(introSMs))
	for i, sm := range introSMs {
		before[i], _ = h.net.Store(sm).Query(intro)
	}
	h.proto.Audit(newcomer)
	for i, sm := range introSMs {
		after, _ := h.net.Store(sm).Query(intro)
		if math.Abs(after-before[i]) > 1e-9 {
			t.Fatalf("closed stake paid again at manager %d: %v -> %v", i, before[i], after)
		}
	}
	if len(h.audits) != 0 {
		t.Fatalf("audit events on a closed stake: %v", h.audits)
	}
	ps := h.proto.Stats()
	if ps.AuditsSatisfied != 0 || ps.StakesRefunded != 1 {
		t.Fatalf("stats after guarded audit: %+v", ps)
	}
}

// TestExpireStakeDropsRecord: the offline-record TTL resolves a pending
// stake and removes it from the books; terminal records drop silently.
func TestExpireStakeDropsRecord(t *testing.T) {
	h := newHarness(t)
	h.proto.SetRetainStakes(true)
	intro, newcomer, introSMs, _ := admitThrough(t, h)
	if got := h.proto.StakeRecords(); got != 1 {
		t.Fatalf("%d stake records after lend, want 1", got)
	}
	// The newcomer departs for good; the TTL fires: the pending stake
	// resolves (refunding the surviving introducer) and the record drops.
	h.vanish(newcomer)
	state, dropped := h.proto.ExpireStake(newcomer)
	if !dropped || state != StakeRefunded {
		t.Fatalf("expire = %v (%v), want refunded + dropped", state, dropped)
	}
	if got := h.proto.StakeRecords(); got != 0 {
		t.Fatalf("%d stake records after expiry, want 0", got)
	}
	for _, sm := range introSMs {
		v, _ := h.net.Store(sm).Query(intro)
		if math.Abs(v-1.0) > 1e-9 {
			t.Fatalf("introducer balance %v after expiry refund, want 1.0", v)
		}
	}
	if _, dropped := h.proto.ExpireStake(newcomer); dropped {
		t.Fatal("second expiry dropped a record again")
	}
}

// TestRetainStakesKeepsRecordAcrossDeparture pins the retention flag:
// without it a departed newcomer's record is dropped at unregistration
// (the pre-timeout behaviour); with it the record survives so the clock
// can still resolve it.
func TestRetainStakesKeepsRecordAcrossDeparture(t *testing.T) {
	for _, retain := range []bool{false, true} {
		h := newHarness(t)
		h.proto.SetRetainStakes(retain)
		_, newcomer, _, _ := admitThrough(t, h)
		h.proto.UnregisterPeer(newcomer)
		if got := h.proto.HasStake(newcomer); got != retain {
			t.Fatalf("retain=%v: record survived=%v", retain, got)
		}
	}
}

func TestStakeStateString(t *testing.T) {
	for _, s := range []StakeState{StakePending, StakeSettled, StakeRefunded, StakeStranded} {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
	if StakeState(42).String() == "" {
		t.Fatal("unknown state must render")
	}
}
