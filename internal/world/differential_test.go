package world

// Checkpoint differential harness: a world cut mid-run, round-tripped
// through a sealed checkpoint and resumed must be observably
// indistinguishable — snapshot bytes, time series, protocol and bus
// counters — from the same world run uncut, over randomized churn and
// workload schedules. This is the harness that pins the arena layout
// and the restore path to the original semantics.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// differentialCfgs yields randomized-parameter configurations spanning
// plain Poisson churn and the calibrated workload layer.
func differentialCfgs() []config.Config {
	var cfgs []config.Config
	for seed := uint64(1); seed <= 3; seed++ {
		c := churnyCfg(seed)
		c.NumSM = 2 + int(seed%3) // vary the fan-out width across trials
		cfgs = append(cfgs, c)
	}
	// One arm under a nonstationary rate program with cohorts, so the
	// workload layer's arrival mixer rides the same contract.
	wl := churnyCfg(7)
	wl.NumSM = 4
	ramp := 0.12
	wl.Workload = &workload.Spec{
		Rate: &workload.Program{
			Windows: []workload.Window{
				{Len: 1500, Lambda: 0.02, RampTo: &ramp},
				{Len: 1500, Lambda: 0.08},
			},
			Repeat: true,
		},
		Cohorts: []workload.Cohort{
			{Name: "steady", Weight: 3},
			{Name: "flaky", Weight: 1, SessionDist: "pareto"},
		},
	}
	cfgs = append(cfgs, wl)
	return cfgs
}

// TestResumedWorldMatchesUncutRun runs each configuration uncut, then
// again with a checkpoint round trip at half its ticks, and requires the
// two runs' fingerprints to be byte-identical and their lending protocols
// to hold as many score-manager states, which no fingerprint counts: a
// restore makes one per exported record, the uncut run one per manager
// that accepted a credit or set a flag. The restored world must
// give some admitted peer another handle than the cut one: checkpoints
// carry no handles, and the check proves the resumed arm runs on a
// renumbered handle table.
func TestResumedWorldMatchesUncutRun(t *testing.T) {
	for i, cfg := range differentialCfgs() {
		t.Run(fmt.Sprintf("cfg=%d", i), func(t *testing.T) {
			// Reference arm: the uninterrupted run.
			ref, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := ref.Run(); err != nil {
				t.Fatalf("uncut run: %v", err)
			}
			want := fingerprint(t, ref)

			// Differential arm: the same run with a checkpoint round trip
			// in the middle.
			w, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			w.Start()
			cut := sim.Tick(cfg.NumTrans / 2)
			if err := w.RunFor(cut); err != nil {
				t.Fatalf("RunFor to cut: %v", err)
			}
			restored := roundTrip(t, w)
			renumbered := 0
			for _, pid := range w.AdmittedPeers() {
				was, _ := w.handles.Get(pid)
				if now, _ := restored.handles.Get(pid); now != was {
					renumbered++
				}
			}
			if renumbered == 0 {
				t.Fatalf("all %d admitted peers kept their handles across the round trip", w.PopulationSize())
			}
			w = restored
			if err := w.RunFor(sim.Tick(cfg.NumTrans) - cut); err != nil {
				t.Fatalf("RunFor tail: %v", err)
			}
			w.Finish()
			got := fingerprint(t, w)
			if !bytes.Equal(want, got) {
				t.Fatalf("cut-and-resumed run diverged from the uncut run (%d vs %d fingerprint bytes)", len(want), len(got))
			}
			if got, want := w.Protocol().ManagerStates(), ref.Protocol().ManagerStates(); got != want {
				t.Fatalf("cut-and-resumed run holds %d score-manager states, the uncut run %d", got, want)
			}
		})
	}
}
