// Package peer models the behaviour classes of the paper's simulation:
// cooperative peers versus uncooperative freeriders, and naive versus
// selective introducers. The attack model is exactly the paper's §2:
// uncooperative peers (1) freeride/furnish bad service, and (2) lie in
// feedback — "an uncooperative peer would always send a value of 0 for its
// partners in order to reduce the impact on its own reputation".
package peer

import (
	"fmt"

	"repro/internal/id"
	"repro/internal/rng"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Class is a peer's behavioural class.
type Class int

// The behaviour classes.
const (
	Cooperative Class = iota
	Uncooperative
)

// String renders the class name.
func (c Class) String() string {
	switch c {
	case Cooperative:
		return "cooperative"
	case Uncooperative:
		return "uncooperative"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Style is a peer's introduction style.
type Style int

// The introducer styles. "Naive introducers are indiscriminate and will
// give an introduction to any new entrant that asks for one. Selective
// introducers … only give introductions to peers that they believe will
// behave in a cooperative fashion", erring on a fraction errSel of the
// dishonest candidates.
const (
	Naive Style = iota
	Selective
)

// String renders the style name.
func (s Style) String() string {
	switch s {
	case Naive:
		return "naive"
	case Selective:
		return "selective"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// Peer is one simulated community member.
type Peer struct {
	ID    id.ID
	Class Class
	Style Style

	// Opinions is the peer's first-hand experience book (ROCQ reporter
	// side).
	Opinions *rocq.OpinionBook

	// JoinedAt is the tick at which the peer was admitted to the system.
	JoinedAt sim.Tick

	// Completed counts completed transactions the peer took part in
	// (either side); the lending audit fires after AuditTrans of them.
	Completed int

	// Audited marks that the admission audit has already run.
	Audited bool

	// Introducer is the peer that introduced this one (zero if the peer
	// is a founder or was admitted without introductions).
	Introducer id.ID

	// DefectAt, when positive, makes a cooperative peer turn traitor at
	// that tick: from then on it freerides and lies like an uncooperative
	// peer. This models the reputation-milking attacker of the extension
	// experiments (build standing honestly, pass the admission audit,
	// then defect). Zero means the peer never defects.
	DefectAt sim.Tick

	// Cohort names the behavioural cohort the workload layer assigned at
	// arrival; empty for founders and for runs without a workload block.
	Cohort string

	// PlanOrdinal keys the peer's slot in the workload layer's keyed plan
	// stream (the arrival's peer-id sequence number), and PlanSeq counts
	// the plan draws taken from it so far — together they make every
	// session-plan draw a pure function of (run seed, ordinal, seq) that
	// replay and checkpoint-resume re-derive exactly.
	PlanOrdinal int64
	PlanSeq     int64

	// Plan is the current visit's workload session plan (nil for peers
	// the workload layer does not govern).
	Plan *workload.Plan
}

// WillServe decides whether the peer responds to a request from a peer
// with the given reputation: "a correctly functioning peer will respond to
// a peer requesting the service with a probability that is equal to the
// requesting peer's reputation". Both classes follow the protocol here —
// an uncooperative peer's damage is bad service and lying feedback, not
// denial of service.
func (p *Peer) WillServe(requesterRep float64, src *rng.Source) bool {
	return src.Bernoulli(requesterRep)
}

// Defected reports whether a scheduled defection has occurred by now.
func (p *Peer) Defected(now sim.Tick) bool {
	return p.DefectAt > 0 && now >= p.DefectAt
}

// BehavesWellAt reports the objective quality of the peer's conduct
// inside a transaction at tick now: cooperative peers provide good
// service and reciprocate; uncooperative peers freeride or furnish
// corrupted content. A traitor that has defected behaves like an
// uncooperative peer from its defection tick onward.
func (p *Peer) BehavesWellAt(now sim.Tick) bool {
	return p.Class == Cooperative && !p.Defected(now)
}

// Rate returns the feedback value the peer sends about a partner whose
// conduct was partnerBehavedWell. Cooperative peers report honestly (1 =
// satisfied, 0 = not); uncooperative peers always report 0.
func (p *Peer) Rate(partnerBehavedWell bool) float64 {
	if p.Class == Uncooperative {
		return 0
	}
	if partnerBehavedWell {
		return 1
	}
	return 0
}

// RateAt is Rate with traitor semantics: a defected peer lies like an
// uncooperative one.
func (p *Peer) RateAt(now sim.Tick, partnerBehavedWell bool) float64 {
	if p.Defected(now) {
		return 0
	}
	return p.Rate(partnerBehavedWell)
}

// WillIntroduce decides whether this peer, asked for an introduction by a
// newcomer of the given class, grants it — before any reputation-floor
// check, which the lending protocol enforces separately.
//
// Naive introducers grant every request. Selective introducers grant every
// cooperative request and, by mistake, a fraction errSel of uncooperative
// ones. The paper's model gives selective introducers this (imperfect)
// discrimination ability directly; in deployment it stands for out-of-band
// knowledge about the newcomer ("it is much more likely that new entrants
// be recommended by peers that are already known to them").
func (p *Peer) WillIntroduce(newcomer Class, errSel float64, src *rng.Source) bool {
	if p.Style == Naive {
		return true
	}
	if newcomer == Cooperative {
		return true
	}
	return src.Bernoulli(errSel)
}

// AssignArrivalClass draws the class of an arriving peer: uncooperative
// with probability fracUncoop.
func AssignArrivalClass(fracUncoop float64, src *rng.Source) Class {
	if src.Bernoulli(fracUncoop) {
		return Uncooperative
	}
	return Cooperative
}

// AssignStyle draws the introduction style for a peer of the given class:
// every uncooperative peer is naive; a cooperative peer is naive with
// probability fracNaive (paper §4: "we assume that all new peers that are
// uncooperative are naive introducers. Among the cooperative new peers,
// fracNaive of these are naive introducers and the rest are selective").
func AssignStyle(class Class, fracNaive float64, src *rng.Source) Style {
	if class == Uncooperative {
		return Naive
	}
	if src.Bernoulli(fracNaive) {
		return Naive
	}
	return Selective
}
