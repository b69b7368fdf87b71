package scenario

// Scenario checkpoint property tests: every golden-pinned built-in
// scenario must produce byte-identical output when interrupted by a
// mid-run checkpoint, encoded, decoded and resumed in a fresh Run.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// runOutput renders a result to the bytes the golden tests pin.
func runOutput(t *testing.T, res *Result) string {
	t.Helper()
	csv, err := res.CSV()
	if err != nil {
		t.Fatalf("CSV: %v", err)
	}
	return res.Summary() + "\n" + csv
}

// openRunState decodes a sealed scenario checkpoint the way the CLI
// resumes one: checkpoint.Open, then DecodeRunStateBody.
func openRunState(data []byte) (*RunState, error) {
	_, body, err := checkpoint.Open(data)
	if err != nil {
		return nil, err
	}
	return DecodeRunStateBody(body)
}

// TestScenarioCheckpointResumeByteIdentity cuts every built-in at half
// its ticks and right after each phase that crashes managers, where the
// cut holds bus crash flags (or, for an abrupt departure, wiped stores),
// and requires the resumed run to print what the uncut run prints.
func TestScenarioCheckpointResumeByteIdentity(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := Get(name)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if spec.Base.NumInit > 100_000 {
				// The million-peer footprint scenario takes minutes and
				// gigabytes per run; its checkpoint cut is exercised at
				// reduced scale by TestMegaScenarioReducedScale instead.
				t.Skipf("%s: NumInit %d too large for the double-run checkpoint sweep", name, spec.Base.NumInit)
			}
			ref, err := spec.Run()
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			want := runOutput(t, ref)

			cuts := []sim.Tick{sim.Tick(spec.Base.NumTrans / 2)}
			busCrash := map[sim.Tick]bool{} // cuts right after a phase that sets bus crash flags
			for _, ph := range spec.Phases {
				at := sim.Tick(ph.At)
				crashes := ph.Crash != nil || ph.Depart != nil && ph.Depart.Crash
				if crashes && at < sim.Tick(spec.Base.NumTrans) && !slices.Contains(cuts, at) {
					cuts = append(cuts, at)
					busCrash[at] = ph.Crash != nil
				}
			}
			for _, cut := range cuts {
				t.Run(fmt.Sprintf("cut %d", cut), func(t *testing.T) {
					spec, err := Get(name)
					if err != nil {
						t.Fatalf("Get: %v", err)
					}
					r, err := spec.Start()
					if err != nil {
						t.Fatalf("Start: %v", err)
					}
					if err := r.RunToTick(cut); err != nil {
						t.Fatalf("RunToTick(%d): %v", cut, err)
					}
					st, err := r.Snapshot()
					if err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
					if busCrash[cut] {
						crashed := 0
						for _, rec := range st.World.Peers {
							if rec.Crashed {
								crashed++
							}
						}
						if crashed == 0 {
							t.Fatalf("the cut after a crash phase holds no crashed node")
						}
					}
					data, err := st.Encode()
					if err != nil {
						t.Fatalf("Encode: %v", err)
					}
					dec, err := openRunState(data)
					if err != nil {
						t.Fatalf("opening run state: %v", err)
					}
					resumed, err := Resume(dec)
					if err != nil {
						t.Fatalf("Resume: %v", err)
					}
					// Double-checkpoint idempotence at the scenario layer.
					st2, err := resumed.Snapshot()
					if err != nil {
						t.Fatalf("re-Snapshot: %v", err)
					}
					data2, err := st2.Encode()
					if err != nil {
						t.Fatalf("re-Encode: %v", err)
					}
					if !bytes.Equal(data, data2) {
						t.Fatalf("snapshot(resume(s)) != s (%d vs %d bytes)", len(data), len(data2))
					}
					res, err := resumed.Finish()
					if err != nil {
						t.Fatalf("Finish after resume: %v", err)
					}
					if got := runOutput(t, res); got != want {
						t.Fatalf("resumed run diverged from uninterrupted run:\nwant %d bytes, got %d bytes", len(want), len(got))
					}
				})
			}
		})
	}
}

// TestMegaScenarioReducedScale runs the mega footprint scenario with its
// population cut down to something a unit test can afford, keeping the rest
// of the spec (null signing, leased churn, sampling cadence) intact, and
// checks the same checkpoint-cut byte identity the full-size builtins get.
func TestMegaScenarioReducedScale(t *testing.T) {
	shrink := func() *Spec {
		spec, err := Get("mega")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if spec.Base.NumInit <= 100_000 {
			t.Fatalf("mega shrank to %d peers; fold it back into the builtin sweep", spec.Base.NumInit)
		}
		spec.Base.NumInit = 4_000
		return spec
	}

	ref, err := shrink().Run()
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want := runOutput(t, ref)

	spec := shrink()
	r, err := spec.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	cut := sim.Tick(spec.Base.NumTrans / 2)
	if err := r.RunToTick(cut); err != nil {
		t.Fatalf("RunToTick(%d): %v", cut, err)
	}
	st, err := r.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := st.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := openRunState(data)
	if err != nil {
		t.Fatalf("opening run state: %v", err)
	}
	resumed, err := Resume(dec)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	res, err := resumed.Finish()
	if err != nil {
		t.Fatalf("Finish after resume: %v", err)
	}
	if got := runOutput(t, res); got != want {
		t.Fatalf("resumed reduced-scale mega run diverged:\nwant %d bytes, got %d bytes", len(want), len(got))
	}
}

func TestScenarioResumeRejectsDefects(t *testing.T) {
	spec, err := Get("churn-steady")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	r, err := spec.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := r.RunToTick(500); err != nil {
		t.Fatalf("RunToTick: %v", err)
	}
	st, err := r.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := st.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	if _, err := openRunState(data[:len(data)-7]); err == nil {
		t.Fatal("truncated scenario checkpoint should be rejected")
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/3] ^= 0x08
	if _, err := openRunState(corrupt); err == nil {
		t.Fatal("bit-flipped scenario checkpoint should be rejected")
	}
	// A world checkpoint must not decode as a scenario run.
	ws, err := r.World().Snapshot()
	if err != nil {
		t.Fatalf("world Snapshot: %v", err)
	}
	wdata, err := ws.Encode()
	if err != nil {
		t.Fatalf("world Encode: %v", err)
	}
	if kind, _, err := checkpoint.Open(wdata); err != nil || kind != checkpoint.KindWorld {
		t.Fatalf("world checkpoint opened as kind %q (err=%v)", kind, err)
	}
	if _, err := openRunState(wdata); err == nil {
		t.Fatal("world checkpoint body decoded as scenario run state")
	}
	// Version skew and cursor overrun are rejected by Resume.
	skew := *st
	skew.Version = RunStateVersion + 1
	if _, err := Resume(&skew); err == nil {
		t.Fatal("version-skewed run state should be rejected")
	}
	bad := *st
	bad.Next = len(spec.Phases) + 1
	if _, err := Resume(&bad); err == nil {
		t.Fatal("out-of-range phase cursor should be rejected")
	}
	// A finished run refuses to checkpoint.
	if _, err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if _, err := r.Snapshot(); err == nil {
		t.Fatal("finished run should refuse to checkpoint")
	}
}
