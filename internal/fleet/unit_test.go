package fleet

import (
	"bytes"
	"testing"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/world"
)

// TestRunJobMatchesDirectConstruction is the oracle of the payload round
// trip. RunJob rebuilds a replica from its job: it decodes the payload
// (config.Load or scenario.Load), overrides the seed and re-applies a
// named policy. Each case builds the same replica directly from the Go
// value and requires the two payloads to marshal identically. The
// fleet-vs-in-process goldens cannot see this step, because both of
// their backends run RunJob.
func TestRunJobMatchesDirectConstruction(t *testing.T) {
	const seed = 0x5eed // differs from every payload's own seed
	base := config.Default()
	base.NumInit = 30
	base.NumTrans = 3_000
	base.Lambda = 0.05
	base.WaitPeriod = 100
	base.Seed = 5
	open := base
	open.RequireIntroductions = false
	cohorts, err := workload.Preset("heavytail-cohorts")
	if err != nil {
		t.Fatal(err)
	}
	shaped := base
	shaped.Workload = cohorts

	for _, c := range []struct {
		name   string
		cfg    config.Config
		policy baseline.Policy // not the world's default, mid-spectrum
	}{
		{"config", base, nil},
		{"config with policy", open, baseline.ComplaintsBased{}},
		{"config with workload", shaped, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			job := Job{Kind: KindConfig, Config: mustJSON(t, c.cfg), Seed: seed}
			if c.policy != nil {
				job.Policy = c.policy.Name()
			}
			res := RunJob(&job)
			if res.Err != "" {
				t.Fatal(res.Err)
			}
			cfg := c.cfg
			cfg.Seed = seed
			w, err := world.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.policy != nil {
				w.SetPolicy(c.policy)
			}
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			want := &ConfigResult{Metrics: *w.Metrics(), Proto: w.Protocol().Stats()}
			if !bytes.Equal(mustJSON(t, res.Config), mustJSON(t, want)) {
				t.Fatal("RunJob's payload differs from the directly built replica's")
			}
		})
	}

	t.Run("scenario", func(t *testing.T) {
		spec, err := scenario.Get("quickstart") // labelled injections: outcomes and final reputations
		if err != nil {
			t.Fatal(err)
		}
		data, err := spec.JSON()
		if err != nil {
			t.Fatal(err)
		}
		res := RunJob(&Job{Kind: KindScenario, Spec: data, Seed: seed})
		if res.Err != "" {
			t.Fatal(res.Err)
		}
		sp := *spec
		sp.Base.Seed = seed
		r, err := sp.Start()
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want := &ScenarioResult{
			Metrics:         out.Metrics,
			Proto:           out.Proto,
			Outcomes:        out.Outcomes,
			FinalReputation: out.FinalReputation,
			Members:         out.Members,
		}
		if len(want.FinalReputation) == 0 {
			t.Fatal("the scenario case needs labelled actors")
		}
		if !bytes.Equal(mustJSON(t, res.Scenario), mustJSON(t, want)) {
			t.Fatal("RunJob's payload differs from the directly run scenario's")
		}
	})
}

// TestRunJobOnPublishesIntoBus: a unit's world publishes into the bus it
// runs on, and attaching the bus changes nothing in the result.
func TestRunJobOnPublishesIntoBus(t *testing.T) {
	job := tinyJobs(t, 1)[0]
	progress := &telemetry.Progress{}
	bus := telemetry.NewBus()
	bus.Attach(progress)
	got := RunJobOn(&job, bus)
	if got.Err != "" {
		t.Fatal(got.Err)
	}
	if progress.Tick() == 0 {
		t.Fatal("the unit published nothing into its bus")
	}
	if want := RunJob(&job); !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Fatal("RunJobOn's result differs from RunJob's")
	}
}
