package fleet

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// RunJob executes one work unit in this process and returns its result.
// It is the one replica executor: fleet workers and the in-process
// replica runner both reduce a unit to exactly this (build the world
// from the payload, seed it from the job, run it, read the metrics), so
// the two backends differ only by the wire. A panic inside the unit is
// reported as a deterministic unit error rather than killing the
// process: the same job would panic identically on every retry, so the
// batch must fail with the message, not cycle workers.
func RunJob(job *Job) *Result { return RunJobOn(job, nil) }

// RunJobOn is RunJob with the unit's world publishing into bus (nil for
// none): the worker's progress gauge, or the in-process runner's
// -telemetry stream. The bus is write-only: attaching it changes no draw
// and no output, which the world's determinism tests pin byte for byte.
func RunJobOn(job *Job, bus *telemetry.Bus) (res *Result) {
	res = &Result{Unit: job.Unit, Epoch: job.Epoch}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("unit %d panicked: %v", job.Unit, r)
			res.Scenario, res.Config = nil, nil
		}
	}()
	switch job.Kind {
	case KindScenario:
		sr, err := runScenarioUnit(job, bus)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.Scenario = sr
	case KindConfig:
		cr, err := runConfigUnit(job, bus)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.Config = cr
	default:
		res.Err = fmt.Sprintf("unknown job kind %q", job.Kind)
	}
	return res
}

// runScenarioUnit executes a scenario replica: the dispatched spec with
// the unit's derived seed.
func runScenarioUnit(job *Job, bus *telemetry.Bus) (*ScenarioResult, error) {
	spec, err := scenario.Load(job.Spec)
	if err != nil {
		return nil, err
	}
	spec.Base.Seed = job.Seed
	r, err := spec.Start()
	if err != nil {
		return nil, err
	}
	r.World().SetTelemetry(bus)
	out, err := r.Finish()
	if err != nil {
		return nil, fmt.Errorf("scenario %q seed %d: %w", spec.Name, job.Seed, err)
	}
	return &ScenarioResult{
		Metrics:         out.Metrics,
		Proto:           out.Proto,
		Outcomes:        out.Outcomes,
		FinalReputation: out.FinalReputation,
		Members:         out.Members,
	}, nil
}

// runConfigUnit executes a configured-world replica, optionally under a
// named baseline bootstrap policy, with the unit's derived seed.
func runConfigUnit(job *Job, bus *telemetry.Bus) (*ConfigResult, error) {
	cfg, err := config.Load(job.Config)
	if err != nil {
		return nil, err
	}
	cfg.Seed = job.Seed
	w, err := world.New(cfg)
	if err != nil {
		return nil, err
	}
	w.SetTelemetry(bus)
	if job.Policy != "" {
		pol, err := baseline.ByName(job.Policy)
		if err != nil {
			return nil, err
		}
		w.SetPolicy(pol)
	}
	if err := w.Run(); err != nil {
		return nil, fmt.Errorf("config seed %d: %w", job.Seed, err)
	}
	return &ConfigResult{Metrics: *w.Metrics(), Proto: w.Protocol().Stats()}, nil
}
