package lending

// Stake lifecycle: the explicit state machine behind every admission
// stake, and the timeout-and-refund rules that close the economic loop
// churn opened. The paper's protocol implicitly assumes both parties of
// an introduction survive to the audit; under membership churn either may
// leave first, which used to leave the stake in limbo forever — the
// introducer out introAmt with no event that could ever settle it. With a
// configurable audit timeout (config.StakeTimeout, wired in by the
// simulation world) every stake now ends in exactly one terminal state,
// and the staked mass is conserved across them:
//
//	            ┌── audit fires ───────────────► settled
//	            │     (satisfied: stake+reward returned;
//	            │      unsatisfactory: forfeited, newcomer debited)
//	            │
//	 pending ───┼── audit satisfied, introducer
//	            │   permanently gone ───────────► stranded
//	            │
//	            ├── timeout, a party survives ──► refunded
//	            │     (introducer reachable: stake returned, bootstrap
//	            │      credit clawed back; introducer gone for good:
//	            │      the surviving newcomer keeps the lent amount)
//	            │
//	            └── timeout, both gone ─────────► stranded
//
// "Permanently gone" reuses the churn-era liveness test: unregistered
// and unknown to every current score manager. A departed-but-rejoinable
// peer still has migrating records, so it is "reachable" and is paid or
// debited through them.
//
// Terminal records of offline peers are expired under a TTL (the world
// schedules ExpireStake at departure + StakeTimeout), so rejoin-free
// churn cannot accrete one stake record per departed newcomer forever.
// See docs/economics.md for the full economics story.

import (
	"fmt"

	"repro/internal/id"
)

// StakeState is the lifecycle state of one admission stake.
type StakeState int

const (
	// StakePending: the lend executed and the admission audit has not
	// settled the stake yet.
	StakePending StakeState = iota
	// StakeSettled: the audit ran and moved the money — satisfied (stake
	// plus reward returned to the introducer) or unsatisfactory (stake
	// forfeited, the newcomer's bootstrap credit removed).
	StakeSettled
	// StakeRefunded: the audit timeout resolved the stake in favour of a
	// surviving party — the stake returned to a reachable introducer, or
	// kept by the newcomer when the introducer is gone for good.
	StakeRefunded
	// StakeStranded: nobody could be paid — a satisfied audit found the
	// introducer permanently gone, or the timeout found both parties
	// gone. The staked mass is lost, and counted.
	StakeStranded
)

// String names the state.
func (s StakeState) String() string {
	switch s {
	case StakePending:
		return "pending"
	case StakeSettled:
		return "settled"
	case StakeRefunded:
		return "refunded"
	case StakeStranded:
		return "stranded"
	}
	return fmt.Sprintf("StakeState(%d)", int(s))
}

// SetRetainStakes keeps stake records of departed newcomers alive instead
// of dropping them at unregistration, so the timeout clock can still
// refund the introducer after the newcomer left. The world enables it
// exactly when a stake timeout is configured; without one the records
// would accrete forever, so the default (off) preserves the original
// drop-at-departure behaviour byte for byte.
func (p *Protocol) SetRetainStakes(on bool) { p.retainStakes = on }

// HasStake reports whether a stake record exists for the newcomer, in any
// state — the world uses it to decide whether a departure needs a TTL
// expiry timer.
func (p *Protocol) HasStake(newcomer id.ID) bool {
	_, ok := p.intro[newcomer]
	return ok
}

// StakeRecords returns the number of stake records on the books (leak
// instrumentation for the TTL-expiry tests).
func (p *Protocol) StakeRecords() int { return len(p.intro) }

// gone is the churn-era permanent-absence test: the peer holds no
// registered signing identity and no current score manager knows it. A
// live peer, a wiped-out-but-present peer, and a departed-but-rejoinable
// peer (whose records migrate with its managers) all fail this test.
func (p *Protocol) gone(pid id.ID) bool {
	if _, registered := p.identityOf(pid); registered {
		return false
	}
	_, known := p.net.QueryReputation(pid)
	return !known
}

// TimeoutStake resolves a stake still pending when its audit deadline
// passes. It reports the terminal state reached and whether this call
// resolved anything (false: no record, or already terminal). The caller —
// the simulation world — schedules it at admission + StakeTimeout.
//
// Resolution favours whoever survives:
//
//   - The introducer is reachable: the stake (no reward) is credited back
//     at its current managers and the newcomer's bootstrap credit is
//     clawed back if its record is still reachable — the loan expires,
//     unwinding neutrally.
//   - The introducer is gone for good but the newcomer survives: the
//     newcomer keeps the lent amount (there is nobody to return it to);
//     the record closes as refunded with no money movement.
//   - Both are gone: the stake is stranded.
func (p *Protocol) TimeoutStake(newcomer id.ID) (StakeState, bool) {
	rec, ok := p.intro[newcomer]
	if !ok || rec.state != StakePending {
		return 0, false
	}
	p.resolvePending(newcomer, rec)
	return rec.state, true
}

// ExpireStake drops the newcomer's stake record under the offline-record
// TTL, resolving it first if still pending (an offline newcomer's audit
// deadline has effectively passed). It reports the record's terminal
// state and whether a record was dropped. The world schedules it when a
// newcomer with a stake record departs and has not rejoined within
// StakeTimeout ticks.
func (p *Protocol) ExpireStake(newcomer id.ID) (StakeState, bool) {
	rec, ok := p.intro[newcomer]
	if !ok {
		return 0, false
	}
	if rec.state == StakePending {
		p.resolvePending(newcomer, rec)
	}
	delete(p.intro, newcomer)
	return rec.state, true
}

// resolvePending applies the timeout rule to a pending stake and fires
// the StakeResolved event.
func (p *Protocol) resolvePending(newcomer id.ID, rec *introRecord) {
	if !p.gone(rec.introducer) {
		// The introducer survives: return the stake to its current
		// managers and unwind the newcomer's bootstrap credit where its
		// record is still reachable. Direct store operations, like the
		// forfeit path: each manager's own timeout clock expires the
		// stake it debited.
		p.creditDistinct(rec.introducer, rec.amount)
		if _, known := p.net.QueryReputation(newcomer); known {
			p.debitDistinct(newcomer, rec.amount)
		}
		p.close(rec, StakeRefunded)
	} else if !p.gone(newcomer) {
		// Nobody can be repaid, but the newcomer survives: it keeps the
		// lent amount — the loan is forgiven rather than stranded.
		p.close(rec, StakeRefunded)
	} else {
		p.close(rec, StakeStranded)
	}
	if p.events.StakeResolved != nil {
		p.events.StakeResolved(newcomer, rec.introducer, rec.state, p.engine.Now())
	}
}

// close moves a pending stake to a terminal state, keeping the mass
// ledger (StakedMass = SettledMass + RefundedMass + StrandedMass +
// PendingMass) exact.
func (p *Protocol) close(rec *introRecord, state StakeState) {
	rec.state = state
	p.stats.PendingMass -= rec.amount
	switch state {
	case StakeSettled:
		p.stats.SettledMass += rec.amount
	case StakeRefunded:
		p.stats.StakesRefunded++
		p.stats.RefundedMass += rec.amount
	case StakeStranded:
		p.stats.StakesStranded++
		p.stats.StrandedMass += rec.amount
	}
}

// creditDistinct credits amount to the peer at each of its distinct
// current managers (padded placements repeat managers; a repeat must not
// double-credit).
func (p *Protocol) creditDistinct(pid id.ID, amount float64) {
	sms := p.net.ScoreManagers(pid)
	for i, n := range sms {
		if id.Contains(sms[:i], n) {
			continue
		}
		p.net.Store(n).Credit(pid, amount)
	}
}

// debitDistinct debits amount from the peer at each of its distinct
// current managers, flooring at 0 (Store.Debit clamps).
func (p *Protocol) debitDistinct(pid id.ID, amount float64) {
	sms := p.net.ScoreManagers(pid)
	for i, n := range sms {
		if id.Contains(sms[:i], n) {
			continue
		}
		p.net.Store(n).Debit(pid, amount)
	}
}
