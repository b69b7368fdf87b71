// Package baseline implements the newcomer-admission alternatives the
// paper's introduction surveys and argues against. Each policy reduces to
// the reputation a newcomer is granted unconditionally on arrival — no
// introducer, no stake, no audit:
//
//   - Complaints-based trust (Aberer & Despotovic): only negative feedback
//     is recorded, so a peer without history "is assumed to be
//     trustworthy" — initial reputation 1. Exploitable by whitewashing
//     (discard the identity once complaints accumulate).
//   - Positive-only feedback: "a new entrant has the minimum possible
//     reputation" — initial reputation 0, indistinguishable from a
//     freerider and frozen out.
//   - Mid-spectrum (positive and negative feedback, e.g. EigenTrust-like):
//     "a new peer enters in the middle of the spectrum" — initial 0.5.
//   - Fixed credit (BitTorrent / Scrivener style): "a small amount of
//     initial credit to each new peer … to get them started" — the same
//     0.1 the lending scheme stakes, but granted for free.
//
// The experiment harness runs each policy through the same simulation
// world as the lending scheme to regenerate the paper's qualitative
// comparison (experiment A2 in DESIGN.md).
package baseline

import "fmt"

// Policy is a bootstrap rule for newcomers admitted without introduction.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// InitialReputation is the reputation granted on arrival.
	InitialReputation() float64
}

// ComplaintsBased trusts newcomers fully (complaints-only systems).
type ComplaintsBased struct{}

// Name implements Policy.
func (ComplaintsBased) Name() string { return "complaints-based" }

// InitialReputation implements Policy.
func (ComplaintsBased) InitialReputation() float64 { return 1.0 }

// PositiveOnly gives newcomers the minimum possible reputation.
type PositiveOnly struct{}

// Name implements Policy.
func (PositiveOnly) Name() string { return "positive-only" }

// InitialReputation implements Policy.
func (PositiveOnly) InitialReputation() float64 { return 0.0 }

// MidSpectrum admits newcomers at the middle of the reputation range.
type MidSpectrum struct{}

// Name implements Policy.
func (MidSpectrum) Name() string { return "mid-spectrum" }

// InitialReputation implements Policy.
func (MidSpectrum) InitialReputation() float64 { return 0.5 }

// FixedCredit grants every newcomer a free bootstrap credit of 0.1, the
// default lending stake, granted here without a lender.
type FixedCredit struct{}

// Name implements Policy.
func (FixedCredit) Name() string { return "fixed-credit(0.1)" }

// InitialReputation implements Policy.
func (FixedCredit) InitialReputation() float64 { return 0.1 }

// All returns the full baseline suite in report order.
func All() []Policy {
	return []Policy{ComplaintsBased{}, PositiveOnly{}, MidSpectrum{}, FixedCredit{}}
}

// ByName resolves a policy by its Name() string. The bare alias
// "fixed-credit" resolves to the fixed credit, matching the CLI's -policy
// spelling; replica units use this to rebuild a policy from the name
// their job carries.
func ByName(name string) (Policy, error) {
	for _, p := range All() {
		if p.Name() == name || (name == "fixed-credit" && p.Name() == "fixed-credit(0.1)") {
			return p, nil
		}
	}
	return nil, fmt.Errorf("baseline: unknown policy %q", name)
}
