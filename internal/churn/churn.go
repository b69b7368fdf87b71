// Package churn models membership churn of *admitted* peers — the
// extension the paper's model leaves out. The paper admits peers but never
// removes them, yet its central mechanism (replicated score managers
// pinned to DHT ownership arcs) only earns its keep when membership
// changes move those arcs and reputation state must survive the move.
//
// The package has two halves:
//
//   - A departure process: a global Poisson departure clock alongside the
//     simulator's arrival clock, or per-peer session clocks drawn from a
//     configurable session-length distribution (exponential, uniform or
//     Pareto). Each departure is a graceful leave or an abrupt crash, and
//     may be followed by a rejoin after a drawn downtime. Process owns all
//     the randomness so a dedicated stream keeps churn draws from
//     perturbing any other stream of a run.
//
//   - Score-manager state migration: when ownership arcs shift, the new
//     owner pulls the replicated reputation records from the surviving
//     replicas. Reconcile implements the majority-of-replicas rule used
//     when survivors disagree; data is lost only when every replica of a
//     record dies in the same event, which the caller counts as a wipeout.
//
// The simulation world (internal/world) wires both halves to the engine:
// it schedules the clocks, applies departures, and runs the pull on every
// arc change.
package churn

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
	"repro/internal/rocq"
)

// Session-length distribution names.
const (
	// SessionExponential draws session lengths from Exp(1/mean) — the
	// memoryless model matching a Poisson departure clock per peer.
	SessionExponential = "exponential"
	// SessionUniform draws uniformly from [mean/2, 3·mean/2].
	SessionUniform = "uniform"
	// SessionPareto draws from a Pareto(α=1.5) tail scaled to the mean —
	// the heavy-tailed session lengths measured in deployed P2P systems
	// (many short visits, a few very long residents).
	SessionPareto = "pareto"
)

// paretoAlpha is the tail exponent of the Pareto session model. 1.5 keeps
// a finite mean (α > 1) with the pronounced heavy tail churn studies
// report.
const paretoAlpha = 1.5

// Params configures membership churn. The zero value is the paper's
// model: members never leave.
type Params struct {
	// Mu is the global departure rate per tick (Poisson clock): each event
	// departs one uniformly chosen admitted peer. 0 disables the clock.
	Mu float64 `json:"mu,omitempty"`
	// CrashFrac is the fraction of departures that are abrupt crashes: the
	// leaving node's store is destroyed before any handoff, so records it
	// was the last surviving replica of are lost. The rest are graceful
	// leaves, whose store participates in the handoff.
	CrashFrac float64 `json:"crashFrac,omitempty"`
	// RejoinProb is the probability that a departed peer returns after a
	// downtime drawn from Exp(1/DowntimeMean).
	RejoinProb float64 `json:"rejoinProb,omitempty"`
	// DowntimeMean is the mean downtime, in ticks, before a rejoin.
	DowntimeMean float64 `json:"downtimeMean,omitempty"`
	// SessionDist selects the per-peer session-length distribution
	// ("exponential", "uniform" or "pareto"); empty defaults to
	// exponential when SessionMean is set.
	SessionDist string `json:"sessionDist,omitempty"`
	// SessionMean, when positive, arms a session clock on every admission:
	// the peer departs once its drawn session length elapses. The session
	// model and the Mu clock may run together.
	SessionMean float64 `json:"sessionMean,omitempty"`
	// MinPopulation floors the community size: departure events that would
	// shrink the admitted population to or below it are skipped. 0 means
	// numSM+1 — enough members for a full distinct replica set.
	MinPopulation int `json:"minPopulation,omitempty"`
	// Migrate forces score-manager state migration on even without a
	// departure process — for scenarios that churn only through scripted
	// depart/rejoin actions.
	Migrate bool `json:"migrate,omitempty"`
	// LeaseTTL, when positive, leases reputation records to offline peers:
	// a departed peer that stays away longer than LeaseTTL ticks loses its
	// lease — every replica of its record is evicted and its rejoin
	// eligibility dropped, counted in Stats.LeaseEvictions. 0 keeps records
	// for as long as a rejoin remains possible.
	LeaseTTL int `json:"leaseTTL,omitempty"`
}

// Active reports whether any churn machinery (departure clocks or state
// migration) is enabled.
func (p Params) Active() bool {
	return p.Mu > 0 || p.SessionMean > 0 || p.Migrate
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.Mu < 0:
		return fmt.Errorf("churn: Mu %v negative", p.Mu)
	case p.CrashFrac < 0 || p.CrashFrac > 1:
		return fmt.Errorf("churn: CrashFrac %v out of [0,1]", p.CrashFrac)
	case p.RejoinProb < 0 || p.RejoinProb > 1:
		return fmt.Errorf("churn: RejoinProb %v out of [0,1]", p.RejoinProb)
	case p.DowntimeMean < 0:
		return fmt.Errorf("churn: DowntimeMean %v negative", p.DowntimeMean)
	case p.RejoinProb > 0 && p.DowntimeMean <= 0:
		return fmt.Errorf("churn: RejoinProb %v needs a positive DowntimeMean", p.RejoinProb)
	case p.SessionMean < 0:
		return fmt.Errorf("churn: SessionMean %v negative", p.SessionMean)
	case p.MinPopulation < 0:
		return fmt.Errorf("churn: MinPopulation %d negative", p.MinPopulation)
	case p.LeaseTTL < 0:
		return fmt.Errorf("churn: LeaseTTL %d negative", p.LeaseTTL)
	}
	switch p.SessionDist {
	case "", SessionExponential, SessionUniform, SessionPareto:
	default:
		return fmt.Errorf("churn: unknown session distribution %q (want %q, %q or %q)",
			p.SessionDist, SessionExponential, SessionUniform, SessionPareto)
	}
	return nil
}

// Process draws the stochastic choices of a churn run from a dedicated
// randomness stream, so enabling churn cannot reshuffle the workload,
// arrival or behaviour draws of an otherwise identical run.
type Process struct {
	src    *rng.Source
	params Params
}

// NewProcess returns a process drawing from src under the given
// (validated) parameters.
func NewProcess(src *rng.Source, params Params) *Process {
	if src == nil {
		//replend:allow nopanic construction-time misuse guard: a nil Source is a harness bug, not a run-path state
		panic("churn: process needs a randomness source")
	}
	return &Process{src: src, params: params}
}

// SetParams replaces the parameters mid-run (the delta path). The stream
// position is unaffected.
func (p *Process) SetParams(params Params) { p.params = params }

// SrcState captures the process's generator state for a checkpoint; the
// parameters themselves are restored from the run configuration.
func (p *Process) SrcState() [4]uint64 { return p.src.State() }

// RestoreSrc overwrites the process's generator state with a checkpointed
// one.
func (p *Process) RestoreSrc(s [4]uint64) { p.src.SetState(s) }

// DepartureGap draws the next inter-departure time of the global Poisson
// clock. It panics when Mu is zero (the caller must not arm the clock).
func (p *Process) DepartureGap() float64 {
	return p.src.Exp(p.params.Mu)
}

// Victim draws the index of the departing peer among n admitted peers.
func (p *Process) Victim(n int) int { return p.src.Intn(n) }

// Crashes draws whether a departure is an abrupt crash.
func (p *Process) Crashes() bool { return p.src.Bernoulli(p.params.CrashFrac) }

// Rejoins draws whether a departed peer will return, and after how many
// ticks. The downtime is exponential with mean DowntimeMean, floored at
// one tick.
func (p *Process) Rejoins() (after float64, ok bool) {
	return SampleRejoin(p.src, p.params.RejoinProb, p.params.DowntimeMean)
}

// SessionLength draws one session length under the configured
// distribution, floored at one tick.
func (p *Process) SessionLength() float64 {
	return SampleSession(p.src, p.params.SessionDist, p.params.SessionMean)
}

// SampleRejoin draws one rejoin decision from an arbitrary source: with
// probability prob the peer returns after an Exp(1/downtimeMean)
// downtime floored at one tick. The per-cohort workload plans draw from
// their own keyed streams through this function, so the cohort model and
// the Process stay one distribution.
func SampleRejoin(src *rng.Source, prob, downtimeMean float64) (after float64, ok bool) {
	if !src.Bernoulli(prob) {
		return 0, false
	}
	d := src.Exp(1 / downtimeMean)
	if d < 1 {
		d = 1
	}
	return d, true
}

// SampleSession draws one session length of the named distribution
// (empty = exponential) with the given positive mean from an arbitrary
// source, floored at one tick. Like SampleRejoin, this is the shared
// sampler behind both the Process and the per-cohort workload plans.
func SampleSession(src *rng.Source, dist string, mean float64) float64 {
	var s float64
	switch dist {
	case SessionUniform:
		s = mean/2 + mean*src.Float64()
	case SessionPareto:
		// Pareto(α) with scale xm chosen so the mean is SessionMean:
		// mean = α·xm/(α−1).
		xm := mean * (paretoAlpha - 1) / paretoAlpha
		s = xm / math.Pow(1-src.Float64(), 1/paretoAlpha)
	default: // exponential
		s = src.Exp(1 / mean)
	}
	if s < 1 {
		s = 1
	}
	return s
}

// ---------------------------------------------------------------------------
// State migration.

// Stats counts churn activity; the world embeds it in its metrics.
type Stats struct {
	// Departures counts graceful leaves of admitted peers; Crashes counts
	// abrupt ones.
	Departures int64
	Crashes    int64
	// Rejoins counts departed peers readmitted with their reputation
	// restored from their score managers.
	Rejoins int64
	// Migrated counts reputation records handed to a new owner after an
	// arc change.
	Migrated int64
	// Wipeouts counts records whose every surviving replica died in one
	// event — the only way churn loses reputation state.
	Wipeouts int64
	// StakesRefunded counts admission stakes the audit-timeout clock
	// resolved in a surviving party's favour (the introducer repaid, or
	// the newcomer keeping the lent amount when the introducer is gone
	// for good); StakesStranded counts stakes lost with nobody left to
	// pay. Both stay zero without a configured stake timeout — except
	// that a satisfied audit whose introducer is permanently gone has
	// always stranded the stake, which is now counted here too.
	StakesRefunded int64
	StakesStranded int64
	// StakesExpired counts stake records of offline peers dropped by the
	// TTL so rejoin-free churn cannot accrete one record per departed
	// newcomer.
	StakesExpired int64
	// LeaseEvictions counts reputation records of offline peers evicted by
	// the record lease (Params.LeaseTTL): like a wipeout, the record is
	// gone for good, but by policy rather than replica loss.
	LeaseEvictions int64
}

// Reconcile applies the majority-of-replicas rule to the surviving
// snapshots of one record: if a strict majority agree exactly, their
// version wins; otherwise the snapshot with the median read value is
// taken (deterministic tie-breaking by full snapshot ordering). The
// boolean is false when no survivor exists — a wipeout.
//
// Reconcile sorts snaps in place, so it reorders its argument: the
// handoff runs it once per migrated record, and a copy per call would
// be garbage on every join. The order ties only identical snapshots, so
// the result does not depend on the input order.
func Reconcile(snaps []rocq.Snapshot) (rocq.Snapshot, bool) {
	switch len(snaps) {
	case 0:
		return rocq.Snapshot{}, false
	case 1:
		return snaps[0], true
	}
	slices.SortFunc(snaps, snapCmp)
	// Majority scan over the sorted survivors: equal snapshots are adjacent.
	runStart, best, bestLen := 0, 0, 1
	for i := 1; i <= len(snaps); i++ {
		if i < len(snaps) && snaps[i] == snaps[runStart] {
			continue
		}
		if n := i - runStart; n > bestLen {
			best, bestLen = runStart, n
		}
		runStart = i
	}
	if 2*bestLen > len(snaps) {
		return snaps[best], true
	}
	// No majority: the median-by-value survivor.
	return snaps[len(snaps)/2], true
}

// snapCmp orders snapshots by read value, then by the full evidence
// tuple, so reconciliation is deterministic.
func snapCmp(a, b rocq.Snapshot) int {
	if c := cmp.Compare(a.Value(), b.Value()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := cmp.Compare(a.W, b.W); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Reports, b.Reports); c != 0 {
		return c
	}
	return cmp.Compare(a.Prior, b.Prior)
}
