package scenario

// Checkpointable scenario runs. A RunState wraps a world snapshot with
// the driver state Run keeps outside the world — the phase cursor, the
// label bindings, the injection outcomes and the crash list — plus the
// spec itself, so a checkpoint file is self-contained: resuming needs
// neither the registry nor the original scenario file.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/world"
)

// RunStateVersion is the scenario checkpoint format version. Version 2
// moved the body to the binary checkpoint codec; version 3 carried world
// snapshot version 6; version 4 carries world snapshot version 7 and
// drops the finished flag, which Snapshot only ever wrote false; version
// 5 carries world snapshot version 8, and version 6 world snapshot
// version 9.
const RunStateVersion = 6

// LabelRecord is one bound injection label.
type LabelRecord struct {
	Label string
	Peer  id.ID
}

// RunState is the serializable state of an executing scenario.
type RunState struct {
	Version  int
	Spec     json.RawMessage // the spec as JSON (Spec.JSON)
	Next     int
	Labels   []LabelRecord      // ascending label
	Outcomes []InjectionOutcome // execution order
	Crashed  []id.ID            // crash order (Recover replays it)
	World    *world.Snapshot
}

// Snapshot captures the run's state. Like world.Snapshot, it requires a
// healthy, unfinished run; the AfterInjection hook is not serializable
// and must be re-attached by the resuming driver if needed.
func (r *Run) Snapshot() (*RunState, error) {
	if r.done {
		return nil, errors.New("scenario: cannot checkpoint a finished run")
	}
	ws, err := r.w.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", r.spec.Name, err)
	}
	specJSON, err := r.spec.JSON()
	if err != nil {
		return nil, fmt.Errorf("scenario %q: encoding spec: %w", r.spec.Name, err)
	}
	st := &RunState{
		Version:  RunStateVersion,
		Spec:     specJSON,
		Next:     r.next,
		Outcomes: append([]InjectionOutcome(nil), r.outcomes...),
		Crashed:  append([]id.ID(nil), r.crashed...),
		World:    ws,
	}
	for label, pid := range r.labels {
		st.Labels = append(st.Labels, LabelRecord{Label: label, Peer: pid})
	}
	sort.Slice(st.Labels, func(i, j int) bool { return st.Labels[i].Label < st.Labels[j].Label })
	return st, nil
}

// Encode serializes the run state into a sealed checkpoint file.
func (st *RunState) Encode() ([]byte, error) {
	if st.Version != RunStateVersion {
		return nil, fmt.Errorf("scenario: cannot encode run state version %d (want %d)", st.Version, RunStateVersion)
	}
	return checkpoint.Seal(checkpoint.KindScenario, st)
}

// DecodeRunStateBody parses the body of an already-opened scenario
// checkpoint envelope.
func DecodeRunStateBody(body []byte) (*RunState, error) {
	var st RunState
	if err := checkpoint.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if st.Version != RunStateVersion {
		return nil, fmt.Errorf("scenario: run state version %d not supported (want %d)", st.Version, RunStateVersion)
	}
	if st.World == nil {
		return nil, errors.New("scenario: run state has no world snapshot")
	}
	return &st, nil
}

// Resume reconstructs an executing run from a checkpointed state. The
// embedded spec is re-validated and the world restored; the run starts
// unfinished, as every checkpointed run was, and Finish (or
// StepPhase/RunToTick) continues exactly where the snapshot was taken.
func Resume(st *RunState) (*Run, error) {
	if st.Version != RunStateVersion {
		return nil, fmt.Errorf("scenario: run state version %d not supported (want %d)", st.Version, RunStateVersion)
	}
	spec, err := Load(st.Spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: resume: %w", err)
	}
	if st.Next < 0 || st.Next > len(spec.Phases) {
		return nil, fmt.Errorf("scenario: resume: phase cursor %d out of range (0..%d)", st.Next, len(spec.Phases))
	}
	w, err := world.Restore(st.World)
	if err != nil {
		return nil, fmt.Errorf("scenario: resume: %w", err)
	}
	r := &Run{
		spec:     spec,
		w:        w,
		labels:   make(map[string]id.ID, len(st.Labels)),
		outcomes: append([]InjectionOutcome(nil), st.Outcomes...),
		crashed:  append([]id.ID(nil), st.Crashed...),
		next:     st.Next,
	}
	for _, rec := range st.Labels {
		if _, dup := r.labels[rec.Label]; dup {
			return nil, fmt.Errorf("scenario: resume: duplicate label %q", rec.Label)
		}
		r.labels[rec.Label] = rec.Peer
	}
	return r, nil
}

// RunToTick advances the run to the given tick, executing every phase
// scheduled at or before it — the driver loop checkpointing drivers use
// before calling Snapshot. When a spaced injection carries the clock
// past the target the run simply stops there; the resulting state is
// still exactly what the uninterrupted run passes through.
func (r *Run) RunToTick(at sim.Tick) error {
	if r.done {
		return errors.New("scenario: run already finished")
	}
	for r.next < len(r.spec.Phases) && sim.Tick(r.spec.Phases[r.next].At) <= at {
		if _, err := r.StepPhase(); err != nil {
			return err
		}
	}
	if now := r.w.Engine().Now(); now < at {
		if err := r.w.RunFor(at - now); err != nil {
			return fmt.Errorf("scenario %q: %w", r.spec.Name, err)
		}
	}
	return nil
}
