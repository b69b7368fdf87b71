// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) plus the ablations called out in DESIGN.md. The paper's
// evaluation is a set of one-parameter sweeps, each point "repeated 10
// times and the results shown are the average", and so is every replica
// experiment here: a Sweep declares its points (configs) and its columns
// (reductions over a point's replicas), and one runner and one renderer
// turn every declaration into a text table, CSV and chart whose shape is
// directly comparable to the published plots. The collusion and traitor
// attacks are scripted single runs instead.
package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Options scales an experiment. The zero value means paper scale: the
// populations, durations and replica counts of §4.
type Options struct {
	// Runs is the number of replicas averaged per data point (paper: 10).
	Runs int
	// Parallel bounds concurrently running replicas (default GOMAXPROCS).
	Parallel int
	// Scale shrinks population and duration linearly (1 = paper scale).
	// Benchmarks use small scales; shapes are preserved because the
	// arrival rate stays per-tick.
	Scale float64
	// SeedBase offsets the replica seeds, so different experiments (and
	// different sweep points) draw independent randomness.
	SeedBase uint64
	// Fleet, when non-nil, dispatches replicas to the fleet's worker
	// processes instead of running them on in-process goroutines. Both
	// backends execute the same jobs through fleet.RunJob, with replica
	// seeds that are keyed splits of (SeedBase, replicaIndex), so they
	// produce byte-identical results; Parallel is ignored (the fleet's
	// worker count is the parallelism).
	Fleet *fleet.Fleet
	// Journal, when non-empty with Fleet, is the path of a coordinator
	// crash journal for the batch: completed units are durably recorded
	// as they land, and a restarted coordinator reopening the same path
	// re-dispatches only the incomplete units.
	Journal string
	// Workload, when non-nil, overrides every replica's workload block
	// (the -workload flag): arrivals follow the given rate program,
	// cohort mix or trace instead of each experiment's homogeneous
	// Poisson generator. The spec rides inside the config, so fleet
	// workers replay it byte-identically.
	Workload *workload.Spec
	// Telemetry, when non-nil, is attached to every in-process replica
	// world and to the scripted collusion and traitor worlds (the
	// -telemetry flag): trace events and metric samples stream into the
	// bus as they run. The bus is not synchronized, so setting it forces
	// Parallel to 1 — replicas publish one at a time, in replica order.
	// Ignored by the fleet backend (replica worlds live in worker
	// processes). Write-only: results are byte-identical with or without
	// it.
	Telemetry *telemetry.Bus
}

// withDefaults fills unset options with paper-scale values.
func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 10
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Telemetry != nil {
		// The bus is unsynchronized; replicas must publish one at a time.
		o.Parallel = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
	return o
}

// apply scales a paper-scale configuration down (or up) and installs
// the workload override, if any.
func (o Options) apply(c config.Config) config.Config {
	if o.Workload != nil {
		c.Workload = o.Workload
	}
	if o.Scale == 1 {
		return c
	}
	c.NumInit = int(float64(c.NumInit) * o.Scale)
	if c.NumInit < 20 {
		c.NumInit = 20
	}
	c.NumTrans = int64(float64(c.NumTrans) * o.Scale)
	if c.NumTrans < 2000 {
		c.NumTrans = 2000
	}
	c.WaitPeriod = int64(float64(c.WaitPeriod) * o.Scale)
	if c.WaitPeriod < 20 {
		c.WaitPeriod = 20
	}
	c.SampleEvery = c.NumTrans / 100
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	return c
}

// Replica is the outcome of one simulation run: the payload of its
// configured-world unit.
type Replica = fleet.ConfigResult

// runJobs executes one batch of replica units and returns their results
// in job order. With opt.Fleet the jobs go to the fleet's workers, under
// the coordinator journal when one is set; otherwise they run here
// through fleet.RunJob, the function every worker executes, at most
// opt.Parallel at a time and publishing into opt.Telemetry. Either way a
// unit's error fails the batch with the unit's message. opt must already
// have defaults applied.
func runJobs(opt Options, jobs []fleet.Job) ([]*fleet.Result, error) {
	if opt.Fleet != nil {
		if opt.Journal == "" {
			return opt.Fleet.Run(jobs)
		}
		j, err := fleet.OpenJournal(opt.Journal, jobs)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		return opt.Fleet.RunJournaled(jobs, j)
	}
	results := make([]*fleet.Result, len(jobs))
	sem := make(chan struct{}, opt.Parallel)
	var wg sync.WaitGroup
	for i := range jobs {
		jobs[i].Unit = i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = fleet.RunJobOn(&jobs[i], opt.Telemetry)
		}()
	}
	wg.Wait()
	for _, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("unit %d: %s", r.Unit, r.Err)
		}
	}
	return results, nil
}

// replicaSeed gives replica i of a data point its own root seed: replica 0
// is the base itself (exactly the run the caller describes), and every
// later replica draws a keyed-split stream. The seed is a pure function of
// (base, i) — independent of dispatch order, worker assignment and
// completion order — so in-process and fleet execution agree replica for
// replica, and distinct replicas of one base can never collide (the old
// arithmetic spread base+7919·i could run into the next sweep point's
// block once Runs exceeded ~127).
func replicaSeed(base uint64, i int) uint64 {
	if i == 0 {
		return base
	}
	return rng.DeriveSeed(base, uint64(i))
}

// sweepSeed gives sweep point i of an experiment its own replica seed
// base, again as a keyed split of the experiment's root SeedBase. Point 0
// keeps the root itself (the unswept experiment). Sweep keys live in a
// disjoint range from replica keys so "replica j of point 0" and "replica
// 0 of point j" never meet.
func sweepSeed(base uint64, i int) uint64 {
	if i == 0 {
		return base
	}
	return rng.DeriveSeed(base, sweepKeyBase+uint64(i))
}

// sweepKeyBase domain-separates sweep-point keys from replica keys in the
// keyed split (replica indices stay far below it).
const sweepKeyBase = 1 << 40

// replicaJobs returns the opt.Runs replica units of cfg. policy may be
// nil (lending admissions) or a baseline bootstrap rule used when cfg
// disables introductions; it travels by name, as the fleet ships it.
// Replica i is the pure function of (SeedBase, i) the keyed seed split
// defines, on either backend.
func replicaJobs(cfg config.Config, opt Options, policy baseline.Policy) ([]fleet.Job, error) {
	data, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding config: %w", err)
	}
	policyName := ""
	if policy != nil {
		policyName = policy.Name()
	}
	jobs := make([]fleet.Job, opt.Runs)
	for i := range jobs {
		jobs[i] = fleet.Job{Kind: fleet.KindConfig, Config: data, Seed: replicaSeed(opt.SeedBase, i), Policy: policyName}
	}
	return jobs, nil
}

// runReplicas executes one batch of replica units and returns their
// replicas in job order. opt must already have defaults applied.
func runReplicas(opt Options, jobs []fleet.Job) ([]Replica, error) {
	results, err := runJobs(opt, jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: replica batch: %w", err)
	}
	out := make([]Replica, len(results))
	for i, r := range results {
		if r.Config == nil {
			return nil, fmt.Errorf("experiments: no payload for replica %d", i)
		}
		out[i] = *r.Config
	}
	return out, nil
}

// meanOf averages a quantity over replicas as a plain sum ÷ n. Over
// integer counts the sum is exact.
func meanOf(rs []Replica, f func(Replica) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rs {
		sum += f(r)
	}
	return sum / float64(len(rs))
}

// statOf accumulates a float64 field over replicas, exposing mean and CI.
func statOf(rs []Replica, f func(Replica) float64) metrics.Running {
	var acc metrics.Running
	for _, r := range rs {
		acc.Observe(f(r))
	}
	return acc
}

// mergeSeriesOf averages a per-replica series pointwise. It returns an
// error (not a panic) on a shape mismatch because replicas may have come
// back over the wire from fleet workers: a malformed payload should fail
// the experiment with context, not crash the coordinator.
func mergeSeriesOf(rs []Replica, name string, f func(Replica) *metrics.Series) (*metrics.Series, error) {
	series := make([]*metrics.Series, len(rs))
	for i, r := range rs {
		series[i] = f(r)
	}
	merged, err := metrics.MergeSeriesChecked(name, series)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return merged, nil
}
