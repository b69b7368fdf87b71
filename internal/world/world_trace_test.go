package world

import (
	"testing"

	"repro/internal/config"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// attachLog attaches an unbounded event log to a fresh telemetry bus on
// the world and returns the log.
func attachLog(w *World) *trace.Log {
	log := trace.New(0)
	bus := telemetry.NewBus()
	bus.Attach(log)
	w.SetTelemetry(bus)
	return log
}

// TestTraceInvariantsOverFullRun drives whole simulations with the event
// log attached and verifies the causal invariants of the admission
// protocol end to end: every admission and refusal follows an arrival, no
// peer is both admitted and refused, audits only happen to admitted
// peers, rejoins follow departures, and the log is time-ordered. The
// churny case runs departures, crashes, rejoins, stake timeouts and
// record leases, so every kind the world publishes reaches a checked log.
func TestTraceInvariantsOverFullRun(t *testing.T) {
	static := smallCfg()
	static.NumTrans = 15000
	static.AuditTrans = 5
	churny := churnyCfg(1)
	churny.NumTrans = 20000
	churny.Churn.LeaseTTL = 600

	for _, tc := range []struct {
		name  string
		cfg   config.Config
		churn bool
	}{
		{"static", static, false},
		{"churny", churny, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			log := attachLog(w)
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}

			if log.Len() == 0 {
				t.Fatal("no events recorded")
			}
			if violations := log.Verify(); len(violations) != 0 {
				t.Fatalf("trace invariants violated:\n%v", violations)
			}
			if s := log.Summary(2); s == "" {
				t.Fatal("empty summary")
			}

			// The log must agree with the counters.
			m := w.Metrics()
			c := m.Churn
			for _, pair := range []struct {
				kind telemetry.Kind
				want int64
			}{
				{telemetry.Arrival, m.ArrivalsCoop + m.ArrivalsUncoop},
				{telemetry.Admitted, m.AdmittedCoop + m.AdmittedUncoop},
				{telemetry.Refused, m.RefusedSelectiveCoop + m.RefusedSelectiveUncoop + m.RefusedRepCoop + m.RefusedRepUncoop},
				{telemetry.AuditOK, m.AuditsSatisfied},
				{telemetry.AuditFail, m.AuditsForfeited},
				{telemetry.Departed, c.Departures + c.Crashes},
				{telemetry.Rejoined, c.Rejoins},
				{telemetry.LeaseEvicted, c.LeaseEvictions},
				{telemetry.StakeClosed, c.StakesRefunded + c.StakesStranded},
				{telemetry.StakeExpired, c.StakesExpired},
			} {
				if got := log.Count(pair.kind); got != pair.want {
					t.Errorf("%s events %d != counters %d", pair.kind, got, pair.want)
				}
			}
			if tc.churn {
				// The churny case must actually exercise the churn,
				// stake and lease kinds, or the equalities above pass
				// vacuously.
				for _, k := range []telemetry.Kind{telemetry.Departed, telemetry.Rejoined, telemetry.LeaseEvicted, telemetry.StakeClosed, telemetry.StakeExpired} {
					if log.Count(k) == 0 {
						t.Errorf("churny run published no %s events", k)
					}
				}
			}
		})
	}
}
