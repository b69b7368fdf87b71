package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/rng"
)

// Size of the sweep workload: one rep is a batch of small Fig-1 worlds
// run as fleet units on in-process protocol workers.
const (
	sweepUnits    = 32
	sweepFounders = 50
	sweepTicks    = 10_000
	sweepWorkers  = 2
	// fleet.New takes tens of microseconds, so one setup_s sample is the
	// mean of a batch of them, and each rep times several batches.
	sweepSetupBatch = 64
	sweepSetups     = 16
)

// sweepJobs builds the batch: config units whose seeds derive from the
// run's seed.
func sweepJobs(seed uint64) ([]fleet.Job, error) {
	c := config.Default()
	c.NumInit = sweepFounders
	c.Lambda = 0.1
	c.NumTrans = sweepTicks
	raw, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	jobs := make([]fleet.Job, sweepUnits)
	for i := range jobs {
		jobs[i] = fleet.Job{Unit: i, Kind: fleet.KindConfig, Config: raw, Seed: rng.DeriveSeed(seed, uint64(i))}
	}
	return jobs, nil
}

// newFleet is the sweep's set-up: the batch's jobs and a fleet with its
// workers.
func newFleet(seed uint64) ([]fleet.Job, *fleet.Fleet, error) {
	jobs, err := sweepJobs(seed)
	if err != nil {
		return nil, nil, err
	}
	f, err := fleet.New(fleet.Config{Workers: sweepWorkers, Spawn: fleet.PipeSpawn()})
	return jobs, f, err
}

func runSweep(r *runner) {
	build := func() (time.Duration, error) {
		var total time.Duration
		for range sweepSetupBatch {
			t0 := time.Now()
			_, f, err := newFleet(r.seed)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
			f.Close()
		}
		return total / sweepSetupBatch, nil
	}
	r.reps(func(traced bool) error {
		if err := r.timeSetups(sweepSetups, build); err != nil {
			return err
		}
		return r.sweepRep(traced)
	})
}

// sweepRep runs one batch through the fleet and checks the merged
// results. A traced rep also runs the same units in-process through
// fleet.RunJob: their results must be identical, and their CPU time is
// the base of fleet.overhead_frac.
func (r *runner) sweepRep(traced bool) (err error) {
	var tr *tracer
	if traced {
		tr = r.tr
		defer tr.begin("rep")()
	}
	end := tr.begin("fleet.New")
	jobs, f, err := newFleet(r.seed)
	end()
	if err != nil {
		return err
	}
	defer f.Close()

	// Every unit is an operation, and a failed batch fails all of them;
	// the rep itself is already counted once.
	r.attempted += len(jobs) - 1
	defer func() {
		if err != nil {
			r.failed += len(jobs) - 1
		}
	}()
	m0, c0, t1 := readMem(), cpuTime(), time.Now()
	end = tr.begin("fleet.Run")
	results, err := f.Run(jobs)
	end()
	wall, cpu := time.Since(t1), cpuTime()-c0
	m1 := readMem()
	if err != nil {
		return err
	}
	r.runPhase(float64(len(jobs)*sweepTicks), wall, cpu, m0, m1, traced)
	merged, err := mergeUnits(results)
	if err != nil {
		return err
	}
	d, err := digestOf(merged)
	if err != nil {
		return err
	}
	if err := r.sameDigest(d); err != nil {
		return err
	}
	if !traced {
		return nil
	}

	var jobBytes, resultBytes float64
	for i := range jobs {
		j, err := json.Marshal(jobs[i])
		if err != nil {
			return err
		}
		res, err := json.Marshal(results[i])
		if err != nil {
			return err
		}
		jobBytes += float64(len(j))
		resultBytes += float64(len(res))
	}
	r.addLayer("fleet.units", float64(len(jobs)))
	r.addLayer("fleet.batch_s", wall.Seconds())
	r.addLayer("fleet.job_bytes", jobBytes)
	r.addLayer("fleet.result_bytes", resultBytes)

	local := make([]*fleet.Result, len(jobs))
	c1 := cpuTime()
	for i := range jobs {
		end := tr.begin("fleet.RunJob")
		local[i] = fleet.RunJob(&jobs[i])
		end()
	}
	localCPU := cpuTime() - c1
	r.addLayer("fleet.overhead_frac", cpu.Seconds()/localCPU.Seconds()-1)
	lm, err := mergeUnits(local)
	if err != nil {
		return err
	}
	if ld, err := digestOf(lm); err != nil {
		return err
	} else if ld != d {
		return fmt.Errorf("fleet results differ from the same units run in-process (%s vs %s)", d, ld)
	}

	var requests, admitted, audits, transactions float64
	for _, u := range merged {
		requests += float64(u.Proto.Requests)
		admitted += float64(u.Proto.Admitted)
		audits += float64(u.Proto.AuditsSatisfied + u.Proto.AuditsForfeited)
		transactions += float64(u.Metrics.Served + u.Metrics.Denied)
	}
	r.addLayer("lending.requests", requests)
	r.addLayer("lending.admitted", admitted)
	r.addLayer("lending.admit_ratio", ratio(admitted, requests))
	r.addLayer("lending.audits", audits)
	r.addLayer("world.transactions", transactions)
	return nil
}

// mergeUnits checks every unit's result — no error, a balanced stake
// ledger — and returns the payloads in unit order.
func mergeUnits(results []*fleet.Result) ([]*fleet.ConfigResult, error) {
	out := make([]*fleet.ConfigResult, len(results))
	for i, res := range results {
		switch {
		case res == nil:
			return nil, fmt.Errorf("unit %d returned no result", i)
		case res.Err != "":
			return nil, fmt.Errorf("unit %d: %s", i, res.Err)
		case res.Config == nil:
			return nil, fmt.Errorf("unit %d returned no config payload", i)
		}
		if err := checkLedger(res.Config.Proto); err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		out[i] = res.Config
	}
	return out, nil
}
