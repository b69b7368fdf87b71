package main

// Checkpoint plumbing for the CLI: -checkpoint-out captures a sealed
// state file at a chosen tick, -checkpoint-in resumes one to completion,
// and `replend-sim checkpoint info <file>` inspects one without running
// anything. A checkpoint is also a bug reproduction: a world that
// misbehaves at tick T can be shipped as the sealed state shortly before
// T plus the binary version.

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/world"
)

// writeWorldCheckpoint runs a fresh world to the given tick and seals
// its state to path.
func writeWorldCheckpoint(w *world.World, at int64, path string) error {
	if at >= w.Config().NumTrans {
		return fmt.Errorf("-checkpoint-at %d is not before the end of the run (%d ticks)", at, w.Config().NumTrans)
	}
	w.Start()
	if err := w.RunFor(sim.Tick(at)); err != nil {
		return err
	}
	snap, err := w.Snapshot()
	if err != nil {
		return err
	}
	data, err := snap.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	logf("world state at tick %d sealed to %s (%d bytes)", at, path, len(data))
	return nil
}

// writeScenarioCheckpoint advances a scenario run to the given tick
// (executing any phases scheduled at or before it) and seals the run
// state to path.
func writeScenarioCheckpoint(spec *scenario.Spec, at int64, path string) error {
	if at >= spec.Base.NumTrans {
		return fmt.Errorf("-checkpoint-at %d is not before the end of the run (%d ticks)", at, spec.Base.NumTrans)
	}
	r, err := spec.Start()
	if err != nil {
		return err
	}
	if err := r.RunToTick(sim.Tick(at)); err != nil {
		return err
	}
	st, err := r.Snapshot()
	if err != nil {
		return err
	}
	data, err := st.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	logf("scenario %q at tick %d sealed to %s (%d bytes)", spec.Name, r.World().Engine().Now(), path, len(data))
	return nil
}

// resume restores a sealed state of either kind and runs it to
// completion, printing the same summary the uninterrupted run prints.
func (s single) resume(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	kind, body, err := checkpoint.Open(data)
	if err != nil {
		return err
	}
	switch kind {
	case checkpoint.KindScenario:
		st, err := scenario.DecodeRunStateBody(body)
		if err != nil {
			return err
		}
		r, err := scenario.Resume(st)
		if err != nil {
			return err
		}
		logf("resuming scenario %q from tick %d", r.Spec().Name, r.World().Engine().Now())
		return s.runOne(r.World(), r.Spec().Name, r.Finish)
	case checkpoint.KindWorld:
		snap, err := world.DecodeSnapshotBody(body)
		if err != nil {
			return err
		}
		w, err := world.Restore(snap)
		if err != nil {
			return err
		}
		logf("resuming world from tick %d", w.Engine().Now())
		return s.runOne(w, "", func() (*scenario.Result, error) {
			if end := sim.Tick(w.Config().NumTrans); w.Engine().Now() < end {
				if err := w.RunFor(end - w.Engine().Now()); err != nil {
					return nil, err
				}
			}
			w.Finish()
			return worldResult(w), nil
		})
	default:
		return fmt.Errorf("checkpoint %s has unknown kind %q", path, kind)
	}
}

// checkpointCmd implements `replend-sim checkpoint info <file>`.
func checkpointCmd(args []string, out io.Writer) error {
	if len(args) != 2 || args[0] != "info" {
		return fmt.Errorf("usage: replend-sim checkpoint info <file>")
	}
	data, err := os.ReadFile(args[1])
	if err != nil {
		return err
	}
	kind, body, err := checkpoint.Open(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "kind:     %s\n", kind)
	fmt.Fprintf(out, "size:     %d bytes\n", len(data))
	switch kind {
	case checkpoint.KindScenario:
		st, err := scenario.DecodeRunStateBody(body)
		if err != nil {
			return err
		}
		spec, err := scenario.Load(st.Spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "version:  %d\n", st.Version)
		fmt.Fprintf(out, "scenario: %s\n", spec.Name)
		fmt.Fprintf(out, "phases:   %d of %d executed\n", st.Next, len(spec.Phases))
		printWorldInfo(out, st.World)
	case checkpoint.KindWorld:
		snap, err := world.DecodeSnapshotBody(body)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "version:  %d\n", snap.Version)
		printWorldInfo(out, snap)
	}
	return nil
}

// printWorldInfo prints the embedded world's headline numbers: peers,
// crashed nodes, cached placements and owner-index lists, and the pending
// events counted per kind in name order.
func printWorldInfo(out io.Writer, s *world.Snapshot) {
	fmt.Fprintf(out, "tick:     %d of %d\n", s.Now, s.Config.NumTrans)
	fmt.Fprintf(out, "seed:     %d\n", s.Config.Seed)
	departed, crashed, placed, indexed := 0, 0, 0, 0
	for _, rec := range s.Peers {
		if rec.Departed {
			departed++
		}
		if rec.Crashed {
			crashed++
		}
		if len(rec.Walk) > 0 {
			placed++
		}
		if len(rec.Index) > 0 {
			indexed++
		}
	}
	fmt.Fprintf(out, "peers:    %d present (%d admitted, %d departed)\n", len(s.Peers)-departed, len(s.Admitted), departed)
	fmt.Fprintf(out, "crashed:  %d live peers\n", crashed)
	fmt.Fprintf(out, "cache:    %d placements, %d owner-index lists\n", placed, indexed)
	perKind := map[string]int{}
	for _, ev := range s.Events {
		perKind[ev.Kind]++
	}
	kinds := make([]string, 0, len(perKind))
	for k := range perKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for i, k := range kinds {
		kinds[i] = fmt.Sprintf("%s %d", k, perKind[k])
	}
	fmt.Fprintf(out, "events:   %d pending (%s)\n", len(s.Events), strings.Join(kinds, ", "))
}
