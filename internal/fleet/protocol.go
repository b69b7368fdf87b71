// Package fleet is the distributed experiment-orchestration subsystem: a
// coordinator shards replica work units — (scenario|configuration, seed)
// pairs — across worker processes and merges their results back into the
// exact shape the in-process replica runner produces.
//
// The design premise is that every work unit is a pure function of its
// job: the unit's RNG stream is derived from (rootSeed, unitIndex) by a
// keyed split (rng.DeriveSeed), never from dispatch order, so any shard
// assignment, worker count, completion order, retry or duplicated
// straggler dispatch reproduces the single-process output byte for byte.
// The coordinator therefore schedules freely — FIFO hand-out to idle
// workers, requeue on worker death, re-dispatch of stragglers — and merges
// results by unit index.
//
// Workers are the existing simulator binary in worker mode: the
// coordinator spawns `<binary> -worker` locally and speaks the protocol
// over the child's stdin/stdout, and remote workers join over TCP with a
// shared token (`-worker-connect addr -fleet-token t`). See docs/fleet.md
// for the wire format and the determinism contract.
package fleet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/lending"
	"repro/internal/scenario"
	"repro/internal/world"
)

// ProtoVersion is the wire protocol version. A worker whose hello carries
// a different version is rejected; the coordinator and its workers are
// expected to run the same binary. Version 2 added segment units (jobs
// that resume a checkpoint, run a tick budget and return the re-sealed
// checkpoint). Version 3 added worker telemetry on heartbeat frames (the
// Status payload), which the coordinator renders as a live progress
// table and folds into the journal's telemetry summary. Version 4
// removed the segment kind, so a version-3 peer that could still send or
// expect one is refused at hello.
const ProtoVersion = 4

// maxFrame bounds a single frame (a job with an embedded spec, or a
// result with its sampled series). Runs that legitimately exceed this are
// misconfigured, not large.
const maxFrame = 64 << 20

// Message types.
const (
	// msgHello is the worker's first frame: protocol version and join
	// token. The coordinator drops the connection on mismatch.
	msgHello = "hello"
	// msgJob carries one work unit, coordinator → worker.
	msgJob = "job"
	// msgResult carries one finished unit, worker → coordinator.
	msgResult = "result"
	// msgHeartbeat is the worker's liveness beacon, sent on a timer even
	// while a unit is computing.
	msgHeartbeat = "heartbeat"
	// msgShutdown asks the worker to exit cleanly.
	msgShutdown = "shutdown"
)

// Job kinds.
const (
	// KindScenario executes a declarative scenario spec under the job's
	// seed.
	KindScenario = "scenario"
	// KindConfig executes a plain configured world (optionally under a
	// named baseline bootstrap policy) under the job's seed.
	KindConfig = "config"
)

// envelope is one protocol frame.
type envelope struct {
	Type   string  `json:"type"`
	Hello  *hello  `json:"hello,omitempty"`
	Job    *Job    `json:"job,omitempty"`
	Result *Result `json:"result,omitempty"`
	Status *Status `json:"status,omitempty"`
}

// Status is the worker telemetry riding on heartbeat frames: where the
// worker is in its current unit and what it costs. Pure observability —
// the coordinator renders it and records a summary, but schedules off
// liveness alone, so a worker without telemetry (an idle one, or one
// between units) is a first-class citizen.
type Status struct {
	// Unit is the inflight unit index, -1 while idle.
	Unit int `json:"unit"`
	// Tick is the simulation tick the unit has reached.
	Tick int64 `json:"tick,omitempty"`
	// TicksPerSec is the unit's tick rate over the last heartbeat
	// interval (0 until two beats have observed the same unit).
	TicksPerSec float64 `json:"tps,omitempty"`
	// PeakRSS is the worker process's resident-set high-water mark in
	// bytes, sampled at each heartbeat.
	PeakRSS uint64 `json:"peakRss,omitempty"`
}

// hello identifies a joining worker.
type hello struct {
	Proto int    `json:"proto"`
	Token string `json:"token,omitempty"`
}

// Job is one work unit. It must be self-contained: a worker that has
// never seen the coordinator's state executes it from the payload alone.
type Job struct {
	// Unit is the unit's index in its batch — the merge key, and the key
	// its RNG stream was derived from. The coordinator assigns it.
	Unit int `json:"unit"`
	// Epoch identifies the batch the unit belongs to. The coordinator
	// assigns it and drops results from stale epochs: a straggler
	// duplicate that loses its race can land after its batch returned,
	// and without the epoch its payload would be merged into the *next*
	// batch at the same unit index.
	Epoch int64 `json:"epoch,omitempty"`
	// Kind selects the payload: KindScenario or KindConfig.
	Kind string `json:"kind"`
	// Spec is the scenario spec JSON (KindScenario).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Config is the configuration JSON (KindConfig).
	Config json.RawMessage `json:"config,omitempty"`
	// Seed is the unit's root seed, derived by the caller from
	// (rootSeed, unitIndex); it overrides the seed inside Spec/Config.
	Seed uint64 `json:"seed"`
	// Policy names a baseline bootstrap policy (KindConfig only, optional).
	Policy string `json:"policy,omitempty"`
}

// Result is one finished unit.
type Result struct {
	// Unit echoes the job's unit index.
	Unit int `json:"unit"`
	// Epoch echoes the job's batch epoch (see Job.Epoch).
	Epoch int64 `json:"epoch,omitempty"`
	// Err is a deterministic unit failure (an invalid spec, a failed
	// world). It is not retried: the same job would fail the same way on
	// every worker.
	Err string `json:"err,omitempty"`
	// Scenario is the payload of a KindScenario unit.
	Scenario *ScenarioResult `json:"scenario,omitempty"`
	// Config is the payload of a KindConfig unit.
	Config *ConfigResult `json:"config,omitempty"`
}

// ScenarioResult is the serializable body of a scenario.Result. The spec
// itself is not echoed back; the coordinator re-attaches the one it
// dispatched. Float64 values survive the JSON round trip exactly
// (shortest-round-trip encoding), which is what keeps fleet output
// byte-identical to in-process output.
type ScenarioResult struct {
	Metrics         world.Metrics               `json:"metrics"`
	Proto           lending.Stats               `json:"proto"`
	Outcomes        []scenario.InjectionOutcome `json:"outcomes,omitempty"`
	FinalReputation map[string]float64          `json:"finalReputation,omitempty"`
	Members         int                         `json:"members"`
}

// ConfigResult is the serializable body of a configured-world replica.
type ConfigResult struct {
	Metrics world.Metrics `json:"metrics"`
	Proto   lending.Stats `json:"proto"`
}

// writeFrame marshals v and writes it as one length-prefixed frame.
func writeFrame(w io.Writer, env *envelope) error {
	payload, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("fleet: encoding %s frame: %w", env.Type, err)
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("fleet: %s frame of %d bytes exceeds the %d-byte limit", env.Type, len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame and unmarshals it.
func readFrame(r io.Reader) (*envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF at a frame boundary is a clean close
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("fleet: incoming frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("fleet: truncated frame: %w", err)
	}
	env := &envelope{}
	if err := json.Unmarshal(payload, env); err != nil {
		return nil, fmt.Errorf("fleet: decoding frame: %w", err)
	}
	if env.Type == "" {
		return nil, fmt.Errorf("fleet: frame without a type")
	}
	return env, nil
}
