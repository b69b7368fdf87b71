// API: the scenario subsystem as a library — the built-in "api" scenario
// (a founder introduces B, B later introduces C: reputation lending
// composing across generations) driven step by step, with the structured
// protocol trace attached to the world's telemetry bus for inspection.
//
// Run with: go run ./examples/api
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	spec, err := scenario.Get("api")
	if err != nil {
		log.Fatal(err)
	}
	r, err := spec.Start()
	if err != nil {
		log.Fatal(err)
	}
	w := r.World()
	tlog := trace.New(0)
	bus := telemetry.NewBus()
	bus.Attach(tlog)
	w.SetTelemetry(bus)

	// Phase 1 at tick 5000: a founder introduces B.
	if _, err := r.StepPhase(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after warm-up: %d members, success rate %.3f\n",
		w.PopulationSize(), w.Metrics().SuccessRate())
	b, _ := r.Labeled("b")
	if err := w.RunFor(sim.Tick(w.Config().WaitPeriod) + 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("B admitted by a founder: member=%v, reputation %.3f\n", isMember(r, "b"), w.Reputation(b))

	// Phase 2 at tick 36001: B has earned its standing and introduces C.
	if _, err := r.StepPhase(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("B established: reputation %.3f\n", w.Reputation(b))
	c, _ := r.Labeled("c")
	if err := w.RunFor(sim.Tick(w.Config().WaitPeriod) + 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C admitted by B: member=%v, reputation %.3f (B staked: %.3f)\n",
		isMember(r, "c"), w.Reputation(c), w.Reputation(b))

	res, err := r.Finish()
	if err != nil {
		log.Fatal(err)
	}
	m := res.Metrics
	fmt.Printf("\nfinal: %d members (%d cooperative, %d freeriding kept at the margins)\n",
		res.Members, m.CoopInSystem, m.UncoopInSystem)
	fmt.Printf("admissions %d/%d coop/uncoop, %d refusals, audits %d ok / %d forfeited\n",
		m.AdmittedCoop, m.AdmittedUncoop,
		m.RefusedSelectiveCoop+m.RefusedSelectiveUncoop+m.RefusedRepCoop+m.RefusedRepUncoop,
		m.AuditsSatisfied, m.AuditsForfeited)

	fmt.Println("\nprotocol trace summary:")
	fmt.Print(tlog.Summary(2))
	if violations := tlog.Verify(); len(violations) != 0 {
		log.Fatalf("trace invariants violated: %v", violations)
	}
	fmt.Println("trace invariants verified ✓")
}

func isMember(r *scenario.Run, label string) bool {
	pid, ok := r.Labeled(label)
	return ok && r.World().IsAdmitted(pid)
}
