package world

import (
	"fmt"

	"repro/internal/config"
)

// Delta is a set of parameter changes applicable to a running world: the
// phase hook scenarios use for churn waves, λ spikes and policy flips.
// Nil fields are left unchanged. Only behavioural parameters are mutable;
// structural ones (population seed, score-manager count, topology kind,
// random seed) are fixed at construction.
type Delta struct {
	// Lambda changes the Poisson arrival rate. The arrival process is
	// re-armed from the current tick; setting 0 stops arrivals.
	Lambda *float64 `json:"lambda,omitempty"`
	// FracUncoop changes the uncooperative share of subsequent arrivals.
	FracUncoop *float64 `json:"fracUncoop,omitempty"`
	// FracNaive changes the naive-introducer share of subsequent
	// cooperative arrivals.
	FracNaive *float64 `json:"fracNaive,omitempty"`
	// ErrSel changes the selective-introducer error rate.
	ErrSel *float64 `json:"errSel,omitempty"`
	// WaitPeriod changes the introduction waiting period T for requests
	// begun after the change.
	WaitPeriod *int64 `json:"waitPeriod,omitempty"`
	// AuditTrans changes the completed-transaction count that triggers
	// the newcomer audit.
	AuditTrans *int `json:"auditTrans,omitempty"`
	// IntroAmt changes the reputation staked per introduction.
	IntroAmt *float64 `json:"introAmt,omitempty"`
	// Reward changes the reward for introducing a cooperative peer.
	Reward *float64 `json:"reward,omitempty"`
	// MinIntroRep changes the reputation floor for acting as introducer.
	MinIntroRep *float64 `json:"minIntroRep,omitempty"`
	// AuditThreshold changes the reputation deemed satisfactory at audit.
	AuditThreshold *float64 `json:"auditThreshold,omitempty"`
	// RequireIntroductions flips between lending admission and the open
	// baseline (the policy-flip phase of ablation scenarios).
	RequireIntroductions *bool `json:"requireIntroductions,omitempty"`
	// SampleEvery changes the time-series sampling interval.
	SampleEvery *int64 `json:"sampleEvery,omitempty"`
	// Mu changes the Poisson departure rate of admitted peers. The
	// departure process is re-armed from the current tick; setting 0
	// stops clock-driven departures (in-flight session clocks and
	// scheduled rejoins still fire).
	Mu *float64 `json:"mu,omitempty"`
	// CrashFrac changes the fraction of subsequent departures that are
	// abrupt crashes.
	CrashFrac *float64 `json:"crashFrac,omitempty"`
	// RejoinProb changes the probability that subsequently departed peers
	// later rejoin.
	RejoinProb *float64 `json:"rejoinProb,omitempty"`
	// DowntimeMean changes the mean downtime before those rejoins.
	DowntimeMean *float64 `json:"downtimeMean,omitempty"`
}

// IsZero reports whether the delta changes nothing.
func (d Delta) IsZero() bool { return d == Delta{} }

// applyTo overlays the delta's set fields on a configuration.
func (d Delta) applyTo(c *config.Config) {
	if d.Lambda != nil {
		c.Lambda = *d.Lambda
	}
	if d.FracUncoop != nil {
		c.FracUncoop = *d.FracUncoop
	}
	if d.FracNaive != nil {
		c.FracNaive = *d.FracNaive
	}
	if d.ErrSel != nil {
		c.ErrSel = *d.ErrSel
	}
	if d.WaitPeriod != nil {
		c.WaitPeriod = *d.WaitPeriod
	}
	if d.AuditTrans != nil {
		c.AuditTrans = *d.AuditTrans
	}
	if d.IntroAmt != nil {
		c.IntroAmt = *d.IntroAmt
	}
	if d.Reward != nil {
		c.Reward = *d.Reward
	}
	if d.MinIntroRep != nil {
		c.MinIntroRep = *d.MinIntroRep
	}
	if d.AuditThreshold != nil {
		c.AuditThreshold = *d.AuditThreshold
	}
	if d.RequireIntroductions != nil {
		c.RequireIntroductions = *d.RequireIntroductions
	}
	if d.SampleEvery != nil {
		c.SampleEvery = *d.SampleEvery
	}
	if d.Mu != nil {
		c.Churn.Mu = *d.Mu
	}
	if d.CrashFrac != nil {
		c.Churn.CrashFrac = *d.CrashFrac
	}
	if d.RejoinProb != nil {
		c.Churn.RejoinProb = *d.RejoinProb
	}
	if d.DowntimeMean != nil {
		c.Churn.DowntimeMean = *d.DowntimeMean
	}
}

// Preview returns the configuration that would result from applying the
// delta to cfg, after validating it. It does not touch any world.
func (d Delta) Preview(cfg config.Config) (config.Config, error) {
	next := cfg
	d.applyTo(&next)
	if err := next.Validate(); err != nil {
		return config.Config{}, fmt.Errorf("world: delta: %w", err)
	}
	return next, nil
}

// ApplyDelta changes the world's parameters mid-run. The merged
// configuration is validated before anything is touched; on error the
// world is unchanged. Arrivals are re-armed when λ changes, and the
// lending protocol picks up new staking constants for subsequent
// introductions.
func (w *World) ApplyDelta(d Delta) error {
	next, err := d.Preview(w.cfg)
	if err != nil {
		return err
	}
	lambdaChanged := next.Lambda != w.cfg.Lambda
	muChanged := next.Churn.Mu != w.cfg.Churn.Mu
	w.cfg = next
	if err := w.proto.SetParams(lendingParams(next)); err != nil {
		return err // unreachable for a validated config; defensive
	}
	w.churnProc.SetParams(next.Churn)
	if lambdaChanged {
		w.rearmArrivals()
	}
	if muChanged {
		w.rearmDepartures()
	}
	return nil
}
