// Package config defines the simulation parameter set: the paper's
// Table 1 (with its published defaults, validation, and JSON
// round-tripping for experiment and scenario files) plus the knobs the
// extensions added — membership churn (Config.Churn, see
// internal/churn), the admission-stake lifecycle clock
// (Config.StakeTimeout), and the null-signing fidelity opt-out
// (Config.NullSign). Default returns Table 1 exactly; Load overlays a
// JSON document on those defaults and validates the result, so an empty
// file is the paper's setup and every field is individually optional.
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/churn"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config mirrors the paper's Table 1 ("Simulation parameters") plus the
// handful of knobs the paper fixes in prose.
type Config struct {
	// NumInit is the initial number of (cooperative) peers in the system.
	NumInit int `json:"numInit"`
	// NumTrans is the number of transactions; the simulator schedules
	// exactly one per simulation time unit, so this is also the run length
	// in ticks.
	NumTrans int64 `json:"numTrans"`
	// NumSM is the number of score managers per peer, at most MaxNumSM.
	NumSM int `json:"numSM"`
	// Lambda is the rate of new peer arrival (Poisson, per tick).
	Lambda float64 `json:"lambda"`
	// FracUncoop is the fraction of new entrants who are uncooperative.
	FracUncoop float64 `json:"fracUncoop"`
	// FracNaive is the fraction of cooperative peers who are naive
	// introducers; the remainder are selective. All uncooperative peers
	// are naive introducers (paper §4).
	FracNaive float64 `json:"fracNaive"`
	// ErrSel is the fraction of selective-peer introduction decisions on
	// uncooperative peers that are (incorrectly) granted.
	ErrSel float64 `json:"errSel"`
	// Topology selects the respondent/introducer bias: "random" or
	// "powerlaw".
	Topology topology.Kind `json:"topology"`
	// WaitPeriod is T, the waiting period for introductions, in ticks.
	WaitPeriod int64 `json:"waitPeriod"`
	// AuditTrans is the number of completed transactions after which a new
	// node is audited.
	AuditTrans int `json:"auditTrans"`
	// IntroAmt is the amount of reputation an introducer gives up when it
	// introduces a new peer.
	IntroAmt float64 `json:"introAmt"`
	// Reward is the reward for introducing a cooperative peer. The paper
	// fixes it at 20% of IntroAmt in §4.3; Table 1's default 0.02 is
	// exactly 0.2·IntroAmt.
	Reward float64 `json:"reward"`
	// MinIntroRep is the minimum reputation required for introducing a
	// peer. It must exceed IntroAmt so lending can never drive a
	// reputation negative (paper §3).
	MinIntroRep float64 `json:"minIntroRep"`
	// AuditThreshold is the reputation at or above which the audited
	// newcomer's performance is "deemed satisfactory based on its
	// reputation value".
	AuditThreshold float64 `json:"auditThreshold"`
	// FounderRep is the initial reputation of the founding community
	// ("Initially, all nodes in the p2p network are assumed to be honest
	// and cooperative").
	FounderRep float64 `json:"founderRep"`
	// RequireIntroductions switches the lending scheme on. With it off,
	// every arriving peer is admitted immediately with FounderRep — the
	// "without introductions" baseline of §4.1's success-rate comparison.
	RequireIntroductions bool `json:"requireIntroductions"`
	// SampleEvery is the tick interval between reputation samples (the
	// paper retrieves reputations "every 5000 time units" for Figure 2).
	SampleEvery int64 `json:"sampleEvery"`
	// Seed drives all randomness of a run.
	Seed uint64 `json:"seed"`
	// Churn configures membership churn of admitted peers — departures,
	// crashes and rejoins with score-manager state migration. The zero
	// value is the paper's model: members never leave.
	Churn churn.Params `json:"churn,omitzero"`
	// StakeTimeout, in ticks, arms the admission-stake lifecycle clock:
	// a stake still pending this long after the admission is resolved by
	// the timeout rule (refunded to a surviving party, or stranded when
	// both parties are gone for good), and stake records of peers offline
	// this long are expired so rejoin-free churn cannot accrete state.
	// 0 (the default, and the paper's model) disables the clock: stakes
	// whose audit never fires stay in limbo, exactly as published.
	StakeTimeout int64 `json:"stakeTimeout,omitempty"`
	// NullSign replaces the Ed25519 signing identities with cheap
	// id-bound null identities: lend orders carry no real signature and
	// none is verified. An explicit fidelity opt-out for huge churn
	// sweeps where the per-lend signature floor dominates; the default
	// (false) keeps the paper's signed protocol.
	NullSign bool `json:"nullSign,omitempty"`
	// Workload layers calibrated arrival/session generation over the
	// homogeneous Poisson knob: nonstationary rate programs, behavioural
	// cohorts, and byte-reproducible trace replay (see internal/workload
	// and docs/workloads.md). nil is the paper's generator. While a rate
	// program or a replayed trace governs arrivals, Lambda (including
	// mid-run Lambda deltas) has no effect.
	Workload *workload.Spec `json:"workload,omitempty"`
}

// MaxNumSM bounds NumSM. A peer's placement keeps NumSM managers and
// walks up to 8·NumSM replica keys to find them, so an unbounded value
// (from a hostile config or checkpoint) would exhaust memory before the
// first walk ends. The paper uses 6.
const MaxNumSM = 256

// Default returns the paper's Table 1 defaults.
func Default() Config {
	return Config{
		NumInit:              500,
		NumTrans:             500_000,
		NumSM:                6,
		Lambda:               0.01,
		FracUncoop:           0.25,
		FracNaive:            0.3,
		ErrSel:               0.10,
		Topology:             topology.PowerLaw,
		WaitPeriod:           1000,
		AuditTrans:           20,
		IntroAmt:             0.1,
		Reward:               0.02,
		MinIntroRep:          0.5,
		AuditThreshold:       0.5,
		FounderRep:           1.0,
		RequireIntroductions: true,
		SampleEvery:          5000,
		Seed:                 1,
	}
}

// WithIntroAmt returns a copy with IntroAmt set and the reward re-derived
// as 20% of the lent amount, the coupling §4.3 uses for its sweep.
func (c Config) WithIntroAmt(amt float64) Config {
	c.IntroAmt = amt
	c.Reward = 0.2 * amt
	if c.MinIntroRep <= amt {
		c.MinIntroRep = amt + 0.05
	}
	return c
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.NumInit < 0:
		return fmt.Errorf("config: NumInit %d negative", c.NumInit)
	case c.NumTrans <= 0:
		return fmt.Errorf("config: NumTrans %d must be positive", c.NumTrans)
	case c.NumSM <= 0:
		return fmt.Errorf("config: NumSM %d must be positive", c.NumSM)
	case c.NumSM > MaxNumSM:
		return fmt.Errorf("config: NumSM %d exceeds MaxNumSM (%d)", c.NumSM, MaxNumSM)
	case c.Lambda < 0:
		return fmt.Errorf("config: Lambda %v negative", c.Lambda)
	case c.FracUncoop < 0 || c.FracUncoop > 1:
		return fmt.Errorf("config: FracUncoop %v out of [0,1]", c.FracUncoop)
	case c.FracNaive < 0 || c.FracNaive > 1:
		return fmt.Errorf("config: FracNaive %v out of [0,1]", c.FracNaive)
	case c.ErrSel < 0 || c.ErrSel > 1:
		return fmt.Errorf("config: ErrSel %v out of [0,1]", c.ErrSel)
	case c.WaitPeriod < 0:
		return fmt.Errorf("config: WaitPeriod %d negative", c.WaitPeriod)
	case c.AuditTrans <= 0:
		return fmt.Errorf("config: AuditTrans %d must be positive", c.AuditTrans)
	case c.IntroAmt <= 0 || c.IntroAmt > 1:
		return fmt.Errorf("config: IntroAmt %v out of (0,1]", c.IntroAmt)
	case c.Reward < 0 || c.Reward > 1:
		return fmt.Errorf("config: Reward %v out of [0,1]", c.Reward)
	case c.MinIntroRep <= c.IntroAmt:
		return fmt.Errorf("config: MinIntroRep %v must exceed IntroAmt %v (paper §3: prevents negative reputation)",
			c.MinIntroRep, c.IntroAmt)
	case c.MinIntroRep > 1:
		return fmt.Errorf("config: MinIntroRep %v out of range", c.MinIntroRep)
	case c.AuditThreshold < 0 || c.AuditThreshold > 1:
		return fmt.Errorf("config: AuditThreshold %v out of [0,1]", c.AuditThreshold)
	case c.FounderRep <= 0 || c.FounderRep > 1:
		return fmt.Errorf("config: FounderRep %v out of (0,1]", c.FounderRep)
	case c.SampleEvery <= 0:
		return fmt.Errorf("config: SampleEvery %d must be positive", c.SampleEvery)
	case c.StakeTimeout < 0:
		return fmt.Errorf("config: StakeTimeout %d negative", c.StakeTimeout)
	}
	if _, err := topology.ParseKind(string(c.Topology)); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := c.Churn.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := c.Workload.Validate(c.Churn); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// Load parses a configuration from JSON, applying defaults for absent
// fields, and validates it. Decoding is strict: an unknown field (a
// misspelt parameter, or a scenario spec passed as a config) and data
// after the object are errors, not silently ignored.
func Load(data []byte) (Config, error) {
	c := Default()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("config: parsing: %w", err)
	}
	if dec.More() {
		return Config{}, errors.New("config: trailing data after the configuration")
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
