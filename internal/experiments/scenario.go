package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

// ScenarioReplica is one seeded execution of a declarative scenario.
type ScenarioReplica struct {
	Seed   uint64
	Result *scenario.Result
}

// RunScenarioReplicas executes opt.Runs replicas of a scenario spec on
// the shared replica runner — in-process, or with opt.Fleet attached on
// the fleet's worker processes, with byte-identical results. Replica i
// runs with the keyed split of the spec's own seed, so replica 0 is
// exactly the run the spec describes; phases, injections and faults
// replay in every replica. opt.Scale is ignored — a scenario states its
// real size.
func RunScenarioReplicas(spec *scenario.Spec, opt Options) ([]ScenarioReplica, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	data, err := spec.JSON()
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding scenario %q: %w", spec.Name, err)
	}
	jobs := make([]fleet.Job, opt.Runs)
	for i := range jobs {
		jobs[i] = fleet.Job{Kind: fleet.KindScenario, Spec: data, Seed: replicaSeed(spec.Base.Seed, i)}
	}
	results, err := runJobs(opt, jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: replicas of scenario %q: %w", spec.Name, err)
	}
	out := make([]ScenarioReplica, len(results))
	for i, r := range results {
		if r.Scenario == nil {
			return nil, fmt.Errorf("experiments: no payload for scenario replica %d", i)
		}
		if r.Scenario.FinalReputation == nil {
			// The wire drops an empty map; a finished run always
			// allocates one, and the backends must match byte for byte.
			r.Scenario.FinalReputation = map[string]float64{}
		}
		// A unit's result carries no spec: each replica gets its own
		// seeded copy of the one dispatched.
		sp := *spec
		sp.Base.Seed = jobs[i].Seed
		out[i] = ScenarioReplica{Seed: sp.Base.Seed, Result: &scenario.Result{
			Spec:            &sp,
			Metrics:         r.Scenario.Metrics,
			Proto:           r.Scenario.Proto,
			Outcomes:        r.Scenario.Outcomes,
			FinalReputation: r.Scenario.FinalReputation,
			Members:         r.Scenario.Members,
		}}
	}
	return out, nil
}

// ScenarioTable renders the cross-replica aggregate of a scenario: mean
// and 95% CI for the headline metrics, in the same text-table shape the
// paper experiments print.
func ScenarioTable(reps []ScenarioReplica) string {
	if len(reps) == 0 {
		return ""
	}
	spec := reps[0].Result.Spec
	t := &TextTable{
		Title: fmt.Sprintf("scenario %q — %d replicas, seeds %d…%d",
			spec.Name, len(reps), reps[0].Seed, reps[len(reps)-1].Seed),
		Header: []string{"metric", "mean", "ci95", "min", "max"},
	}
	row := func(name string, f func(ScenarioReplica) float64) {
		var acc metrics.Running
		for _, r := range reps {
			acc.Observe(f(r))
		}
		t.AddRow(name, acc.Mean(), acc.CI95(), acc.Min(), acc.Max())
	}
	row("members at end", func(r ScenarioReplica) float64 { return float64(r.Result.Members) })
	row("admitted cooperative", func(r ScenarioReplica) float64 { return float64(r.Result.Metrics.AdmittedCoop) })
	row("admitted uncooperative", func(r ScenarioReplica) float64 { return float64(r.Result.Metrics.AdmittedUncoop) })
	row("refused (all reasons)", func(r ScenarioReplica) float64 {
		m := &r.Result.Metrics
		return float64(m.RefusedSelectiveCoop + m.RefusedSelectiveUncoop + m.RefusedRepCoop + m.RefusedRepUncoop)
	})
	row("success rate", func(r ScenarioReplica) float64 { return r.Result.Metrics.SuccessRate() })
	row("audits satisfied", func(r ScenarioReplica) float64 { return float64(r.Result.Metrics.AuditsSatisfied) })
	row("audits forfeited", func(r ScenarioReplica) float64 { return float64(r.Result.Metrics.AuditsForfeited) })
	if spec.Base.StakeTimeout > 0 {
		// The stake-lifecycle rows exist only when the timeout clock is
		// armed, so outputs of every pre-existing scenario stay
		// byte-identical.
		row("stakes refunded", func(r ScenarioReplica) float64 { return float64(r.Result.Metrics.Churn.StakesRefunded) })
		row("stakes stranded", func(r ScenarioReplica) float64 { return float64(r.Result.Metrics.Churn.StakesStranded) })
		row("stake records expired", func(r ScenarioReplica) float64 { return float64(r.Result.Metrics.Churn.StakesExpired) })
		row("stake mass pending at end", func(r ScenarioReplica) float64 { return r.Result.Proto.PendingMass })
	}
	row("mean coop reputation at end", func(r ScenarioReplica) float64 {
		last, _ := r.Result.Metrics.CoopReputation.Last()
		return last.V
	})

	var b strings.Builder
	b.WriteString(t.String())
	labels := map[string]bool{}
	for _, o := range reps[0].Result.Outcomes {
		if o.Label != "" && !labels[o.Label] {
			labels[o.Label] = true
		}
	}
	if len(labels) > 0 {
		lt := &TextTable{
			Title:  "scripted actors — final reputation across replicas",
			Header: []string{"label", "mean", "ci95", "min", "max"},
		}
		for _, o := range reps[0].Result.Outcomes {
			if o.Label == "" {
				continue
			}
			var acc metrics.Running
			for _, r := range reps {
				acc.Observe(r.Result.FinalReputation[o.Label])
			}
			lt.AddRow(o.Label, acc.Mean(), acc.CI95(), acc.Min(), acc.Max())
		}
		b.WriteString("\n")
		b.WriteString(lt.String())
	}
	return b.String()
}
