package scenario

import (
	"testing"

	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/world"
)

// The workload built-ins are pinned like the churn ones: an inline
// replication through the direct World API must reproduce the
// registry-built scenario run metric for metric, which pins the thinning
// chain, the cohort mixer and the keyed plan streams byte for byte. The
// record/replay test closes the loop the subsystem exists for: a trace
// exported from a generated run must re-drive an identical run.

// TestGoldenDiurnal pins "diurnal": two day/night cycles of the
// nonstationary rate program, replicated as a plain configured run.
// Beyond byte-stability it checks the thinning actually modulates: the
// arrival count must track the program's integral (~1150 over 60k
// ticks), far below what the flat peak rate would generate (9000).
func TestGoldenDiurnal(t *testing.T) {
	spec, err := Get("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Base.Workload == nil || spec.Base.Workload.Rate == nil {
		t.Fatalf("diurnal has no rate program: %+v", spec.Base.Workload)
	}
	w, err := world.New(spec.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	arrivals := m.ArrivalsCoop + m.ArrivalsUncoop
	if arrivals < 900 || arrivals > 1400 {
		t.Fatalf("diurnal produced %d arrivals; the thinning chain is not tracking the program integral (~1150)", arrivals)
	}
	if len(m.Cohorts) != 0 {
		t.Fatalf("rate-only workload grew cohort rows: %+v", m.Cohorts)
	}
	want := worldDigest(w, map[string]id.ID{})
	compareDigests(t, want, runBuiltin(t, "diurnal"))
}

// TestGoldenCohortMix pins "cohort-mix": three behavioural cohorts over
// plain Poisson arrivals, replicated as a plain configured run. Beyond
// byte-stability it checks the mixer's signature: every cohort arrives
// roughly at its weight, and the cohort session plans drive a live
// lifecycle (departures, crashes, rejoins, record migration).
func TestGoldenCohortMix(t *testing.T) {
	spec, err := Get("cohort-mix")
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(spec.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if len(m.Cohorts) != 3 {
		t.Fatalf("cohort-mix grew %d cohort rows, want 3: %+v", len(m.Cohorts), m.Cohorts)
	}
	var total int64
	byName := map[string]*world.CohortStats{}
	for i := range m.Cohorts {
		c := &m.Cohorts[i]
		if c.Arrivals == 0 {
			t.Fatalf("cohort %q never arrived", c.Name)
		}
		total += c.Arrivals
		byName[c.Name] = c
	}
	mobile, ok := byName["mobile-churner"]
	if !ok {
		t.Fatalf("no mobile-churner row: %+v", m.Cohorts)
	}
	if 10*mobile.Arrivals < 4*total || 10*mobile.Arrivals > 6*total {
		t.Fatalf("mobile-churner (weight 0.5) got %d of %d arrivals; the mixer is off its weights", mobile.Arrivals, total)
	}
	c := m.Churn
	if c.Departures == 0 || c.Crashes == 0 || c.Rejoins == 0 {
		t.Fatalf("cohort plans produced no lifecycle activity: %+v", c)
	}
	if c.Migrated == 0 {
		t.Fatal("cohort churn migrated no records; the handoff protocol is dead")
	}
	want := worldDigest(w, map[string]id.ID{})
	compareDigests(t, want, runBuiltin(t, "cohort-mix"))
}

// TestWorkloadCheckpointMidWindow checkpoints "diurnal" at tick 12,500 —
// the middle of the first dusk ramp, where the thinning clock, the
// program phase and the pending candidate all carry fractional state —
// and demands the resumed run reproduce the uninterrupted output byte
// for byte. (The generic NumTrans/2 sweep in snapshot_test.go cuts this
// scenario exactly on a window boundary; this test pins the harder
// mid-window cut.)
func TestWorkloadCheckpointMidWindow(t *testing.T) {
	spec, err := Get("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := runOutput(t, ref)

	spec2, err := Get("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec2.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunToTick(12_500); err != nil {
		t.Fatal(err)
	}
	st, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := openRunState(data)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(dec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := runOutput(t, res); got != want {
		t.Fatalf("mid-window resume diverged from uninterrupted run:\nwant %d bytes, got %d bytes", len(want), len(got))
	}
}

// TestWorkloadRecordReplayByteIdentical closes the trace loop: record
// the workload events of a generated run, feed the trace back as a
// replay spec, and demand metric-for-metric identity. Replay silences
// the two workload streams and re-derives every session plan from the
// trace and the keyed plan streams, so nothing else may wobble.
func TestWorkloadRecordReplayByteIdentical(t *testing.T) {
	for _, name := range []string{"diurnal", "cohort-mix"} {
		t.Run(name, func(t *testing.T) {
			spec, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := world.New(spec.Base)
			if err != nil {
				t.Fatal(err)
			}
			rec := workload.NewRecorder(workload.Header{Scenario: name, Seed: spec.Base.Seed})
			w.SetWorkloadRecorder(rec)
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			events := rec.Events()
			if len(events) == 0 {
				t.Fatal("recorded run produced no workload events")
			}
			if err := workload.ValidateEvents(events); err != nil {
				t.Fatalf("recorded trace invalid: %v", err)
			}

			// The replay spec keeps the cohort table (demand weights and
			// migration gating must match the recorded run) but replaces
			// the generator with the trace.
			cfg := spec.Base
			cfg.Workload = &workload.Spec{
				Cohorts: spec.Base.Workload.Cohorts,
				Trace:   events,
			}
			w2, err := world.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w2.Run(); err != nil {
				t.Fatal(err)
			}
			compareDigests(t, worldDigest(w, map[string]id.ID{}), worldDigest(w2, map[string]id.ID{}))
		})
	}
}

// TestWorkloadSnapshotRestoresReplayCursor pins the replay chain through
// a raw world checkpoint: cut a replaying run mid-trace and the restored
// world must finish identically to the uninterrupted replay.
func TestWorkloadSnapshotRestoresReplayCursor(t *testing.T) {
	spec, err := Get("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(spec.Base)
	if err != nil {
		t.Fatal(err)
	}
	rec := workload.NewRecorder(workload.Header{Scenario: "diurnal", Seed: spec.Base.Seed})
	w.SetWorkloadRecorder(rec)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	cfg := spec.Base
	cfg.Workload = &workload.Spec{Trace: rec.Events()}

	ref, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	cut, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut.Start()
	if err := cut.RunFor(sim.Tick(cfg.NumTrans / 2)); err != nil {
		t.Fatal(err)
	}
	snap, err := cut.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := world.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RunFor(sim.Tick(cfg.NumTrans) - resumed.Engine().Now()); err != nil {
		t.Fatal(err)
	}
	resumed.Finish()
	compareDigests(t, worldDigest(ref, map[string]id.ID{}), worldDigest(resumed, map[string]id.ID{}))
}
