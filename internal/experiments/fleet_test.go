package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// newTestFleet builds a 3-worker fleet whose workers run the full wire
// protocol in-process (the cmd/replend-sim tests cover real child
// processes end to end).
func newTestFleet(t *testing.T) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(fleet.Config{Workers: 3, Spawn: fleet.PipeSpawn(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestFleetScenarioReplicasByteIdentical is the determinism golden of the
// fleet subsystem: a 3-worker fleet run of the golden-pinned churn
// scenarios must reproduce the in-process RunScenarioReplicas output byte
// for byte — the rendered replica table, every per-replica metric, and
// the primary run's CSV series.
func TestFleetScenarioReplicasByteIdentical(t *testing.T) {
	for _, name := range []string{"sm-wipeout", "churn-steady", "diurnal", "cohort-mix"} {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			inproc, err := RunScenarioReplicas(spec, Options{Runs: 3})
			if err != nil {
				t.Fatal(err)
			}
			fleeted, err := RunScenarioReplicas(spec, Options{Runs: 3, Fleet: newTestFleet(t)})
			if err != nil {
				t.Fatal(err)
			}
			if len(inproc) != len(fleeted) {
				t.Fatalf("replica counts differ: %d vs %d", len(inproc), len(fleeted))
			}
			for i := range inproc {
				if inproc[i].Seed != fleeted[i].Seed {
					t.Fatalf("replica %d seed %d vs %d", i, inproc[i].Seed, fleeted[i].Seed)
				}
				a, err := json.Marshal(inproc[i].Result)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(fleeted[i].Result)
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Fatalf("replica %d of %q differs between fleet and in-process execution", i, name)
				}
			}
			if a, b := ScenarioTable(inproc), ScenarioTable(fleeted); a != b {
				t.Fatalf("rendered tables differ for %q:\n--- in-process ---\n%s\n--- fleet ---\n%s", name, a, b)
			}
			a, err := inproc[0].Result.CSV()
			if err != nil {
				t.Fatal(err)
			}
			b, err := fleeted[0].Result.CSV()
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("primary CSV differs for %q", name)
			}
		})
	}
}

// TestFleetSweepsByteIdentical runs the Figure-1 experiment and the churn
// and session mu-sweeps on a 3-worker fleet and demands byte-identical
// tables and CSV series against the in-process path.
func TestFleetSweepsByteIdentical(t *testing.T) {
	opt := Options{Runs: 2, Scale: 0.04, SeedBase: 11}
	fopt := opt
	fopt.Fleet = newTestFleet(t)
	for _, name := range []string{"fig1", "churn", "sessions", "stakes", "workload"} {
		t.Run(name, func(t *testing.T) {
			inproc, err := Run(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			fleeted, err := Run(name, fopt)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := inproc.Table(), fleeted.Table(); a != b {
				t.Fatalf("%s tables differ:\n--- in-process ---\n%s\n--- fleet ---\n%s", name, a, b)
			}
			if a, b := inproc.CSV(), fleeted.CSV(); a != b {
				t.Fatalf("%s CSV differs between fleet and in-process execution", name)
			}
		})
	}
}

// TestFleetBaselinePolicyReplicas covers the named-policy path: baseline
// bootstrap replicas (no introductions) run identically on workers.
func TestFleetBaselinePolicyReplicas(t *testing.T) {
	opt := Options{Runs: 2, Scale: 0.04, SeedBase: 7}
	fopt := opt
	fopt.Fleet = newTestFleet(t)
	inproc, err := RunBaselines(opt)
	if err != nil {
		t.Fatal(err)
	}
	fleeted, err := RunBaselines(fopt)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := inproc.Table(), fleeted.Table(); a != b {
		t.Fatalf("baseline tables differ:\n--- in-process ---\n%s\n--- fleet ---\n%s", a, b)
	}
}

// TestRunJobsInProcessUnitErrorFailsBatch: without a fleet, a failing
// unit fails the batch with the unit's own message, as a fleet does.
func TestRunJobsInProcessUnitErrorFailsBatch(t *testing.T) {
	jobs := []fleet.Job{{Kind: fleet.KindConfig, Config: json.RawMessage(`{"numTrans":-4}`), Seed: 1}}
	_, err := runJobs(Options{Runs: 1}.withDefaults(), jobs)
	if err == nil || !strings.Contains(err.Error(), "NumTrans") {
		t.Fatalf("err = %v, want the unit's NumTrans error", err)
	}
}
