package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// Sizes of the world workloads. One rep builds a world and runs it to
// the end; a run repeats reps for its time budget and reports medians.
const (
	worldTicks       = 100_000 // growth and churn: ticks per world
	worldChunk       = 5_000   // ticks per RunFor call
	standingFounders = 30_000  // mega's million founders cut so one rep fits a run
	standingChunk    = 250
)

// growthConfig is the Fig-1 world at Table-1 settings: 500 founders,
// power-law topology, Ed25519 signing, λ = 0.1, no churn.
func growthConfig(seed uint64) config.Config {
	c := config.Default()
	c.Lambda = 0.1
	c.NumTrans = worldTicks
	c.Seed = seed
	return c
}

// churnConfig adds the churn sweep's departure process at μ = λ/2: 30%
// crashes, half the departed rejoin after a mean 2000-tick downtime, and
// state migration on.
func churnConfig(seed uint64) config.Config {
	c := growthConfig(seed)
	c.Churn = churn.Params{Mu: c.Lambda / 2, CrashFrac: 0.3, RejoinProb: 0.5, DowntimeMean: 2_000, Migrate: true}
	return c
}

// standingConfig is the mega built-in (null signing, leased churn, a
// short transaction tail) with its founders cut to standingFounders.
func standingConfig(seed uint64) config.Config {
	c := scenario.Mega().Base
	c.NumInit = standingFounders
	c.Seed = seed
	return c
}

// worldSpec describes one world workload.
type worldSpec struct {
	cfg    config.Config
	chunk  int64
	cut    int64 // tick of the mid-run checkpoint round trip; 0 for none
	stream bool  // attach a JSONL stream sink writing to a counting writer
	setups int   // timed world.New calls before each rep, for setup_s
}

// growth and churn build their worlds in milliseconds, so they time many
// builds per rep for a steady median; standing's take seconds each.
func runGrowth(r *runner) {
	r.runWorlds(worldSpec{cfg: growthConfig(r.seed), chunk: worldChunk, setups: 10})
}

func runChurn(r *runner) {
	r.runWorlds(worldSpec{cfg: churnConfig(r.seed), chunk: worldChunk, stream: true, setups: 10})
}

func runStanding(r *runner) {
	c := standingConfig(r.seed)
	r.runWorlds(worldSpec{cfg: c, chunk: standingChunk, cut: c.NumTrans / 2, setups: 3})
}

func (r *runner) runWorlds(ws worldSpec) {
	build := func() (time.Duration, error) {
		t0 := time.Now()
		_, err := world.New(ws.cfg)
		return time.Since(t0), err
	}
	r.reps(func(traced bool) error {
		if err := r.timeSetups(ws.setups, build); err != nil {
			return err
		}
		return r.worldRep(ws, traced)
	})
}

// repTrace is one rep's tracing state: the benchmark's tracer and the
// simulator's span recorder, both nil in an untraced rep.
type repTrace struct {
	tr   *tracer
	sp   *telemetry.Spans
	prev map[string]telemetry.SpanStat
	mark int // index of the rep's first span record
}

// span runs f inside a benchmark span and files the simulator's own
// spans that f produced as its children.
func (rt *repTrace) span(name string, f func() error) error {
	end := rt.tr.begin(name)
	err := f()
	if rt.sp != nil {
		rt.prev = rt.tr.program(rt.sp, rt.prev)
	}
	end()
	return err
}

// timed is span for work that cannot fail.
func (rt *repTrace) timed(name string, f func()) {
	_ = rt.span(name, func() error { f(); return nil })
}

// runTo advances w to tick until in RunFor chunks.
func (rt *repTrace) runTo(w *world.World, until, chunk int64) error {
	for now := int64(w.Engine().Now()); now < until; now = int64(w.Engine().Now()) {
		n := min(chunk, until-now)
		if err := rt.span("world.RunFor", func() error { return w.RunFor(sim.Tick(n)) }); err != nil {
			return err
		}
	}
	return nil
}

// worldRep builds one world, runs it to the end — through a checkpoint
// round trip at ws.cut when set — and checks and measures the result.
func (r *runner) worldRep(ws worldSpec, traced bool) error {
	rt := &repTrace{}
	if traced {
		rt.tr, rt.sp, rt.mark = r.tr, telemetry.NewSpans(), len(r.tr.spans)
		defer rt.tr.begin("rep")()
	}

	var w *world.World
	if err := rt.span("world.New", func() (err error) {
		w, err = world.New(ws.cfg)
		return err
	}); err != nil {
		return err
	}
	w.SetSpans(rt.sp)
	var sink *streamSink
	if ws.stream {
		sink = newStreamSink(traced)
		bus := telemetry.NewBus()
		bus.Attach(sink)
		w.SetTelemetry(bus)
	}

	m0, c0, t1 := readMem(), cpuTime(), time.Now()
	p0 := w.Engine().Processed()
	var events int64
	if ws.cut > 0 {
		if err := rt.runTo(w, ws.cut, ws.chunk); err != nil {
			return err
		}
		events += w.Engine().Processed() - p0
		r.attempted++ // the checkpoint round trip is an operation of its own
		w2, err := r.roundTrip(w, rt)
		if err != nil {
			return fmt.Errorf("checkpoint round trip at tick %d: %w", ws.cut, err)
		}
		w = w2
		w.SetSpans(rt.sp)
		p0 = w.Engine().Processed()
	}
	if err := rt.runTo(w, ws.cfg.NumTrans, ws.chunk); err != nil {
		return err
	}
	w.Finish()
	if err := w.Err(); err != nil {
		return err
	}
	wall, cpu := time.Since(t1), cpuTime()-c0
	m1 := readMem()
	events += w.Engine().Processed() - p0

	ticks := float64(ws.cfg.NumTrans)
	r.runPhase(ticks, wall, cpu, m0, m1, traced)

	d, err := worldDigest(w)
	if err != nil {
		return err
	}
	if err := r.sameDigest(d); err != nil {
		return err
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			return err
		}
	}
	if err := checkWorld(w); err != nil {
		return err
	}
	live := liveHeap()
	pop := w.PopulationSize()
	r.perPeer = append(r.perPeer, live/float64(pop))

	if !traced {
		return nil
	}
	r.addLayer("sim.events", float64(events))
	r.addLayer("sim.events_per_tick", float64(events)/ticks)
	r.addLayer("mem.heap_live_mb", live/(1<<20))
	r.addLayer("mem.heap_bytes_per_peer", live/float64(pop))
	if sink != nil {
		r.addLayer("telemetry.records", float64(sink.Written()))
		r.addLayer("telemetry.bytes", float64(sink.out.n))
		r.addLayer("telemetry.write_s", sink.busy.Seconds())
	}
	r.spanLayers(rt)
	return r.probeWorld(w, rt, live)
}

// roundTrip checkpoints w and restores it: seal, verify, decode,
// restore, then checks the restored world against the original at the
// cut. Opening the checkpoint (digest verification) and decoding its body
// are the two steps of world.DecodeSnapshot, called apart so a traced rep
// times each.
func (r *runner) roundTrip(w *world.World, rt *repTrace) (*world.World, error) {
	var (
		snap *world.Snapshot
		data []byte
		w2   *world.World
	)
	t0 := time.Now()
	err := rt.span("snapshot.build", func() (err error) {
		snap, err = w.Snapshot()
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := rt.span("snapshot.seal", func() (err error) {
		data, err = snap.Encode()
		return err
	}); err != nil {
		return nil, err
	}
	snap = nil
	t1 := time.Now()
	var body []byte
	if err := rt.span("snapshot.open", func() (err error) {
		var kind string
		kind, body, err = checkpoint.Open(data)
		if err == nil && kind != checkpoint.KindWorld {
			err = fmt.Errorf("checkpoint kind %q is not a world", kind)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := rt.span("snapshot.decode", func() (err error) {
		snap, err = world.DecodeSnapshotBody(body)
		return err
	}); err != nil {
		return nil, err
	}
	if err := rt.span("snapshot.restore", func() (err error) {
		w2, err = world.Restore(snap)
		return err
	}); err != nil {
		return nil, err
	}
	t2 := time.Now()
	r.ckpt = append(r.ckpt, t1.Sub(t0).Seconds())
	r.rest = append(r.rest, t2.Sub(t1).Seconds())
	r.ckptMB = append(r.ckptMB, float64(len(data))/(1<<20))
	if rt.tr != nil {
		r.addLayer("snapshot.bytes", float64(len(data)))
	}
	return w2, checkCut(w, w2)
}

// streamSink is the churn workload's JSONL telemetry.StreamSink writing
// to a counting writer that discards its input. In a traced rep it also
// times every call into the sink (encoding plus writing).
type streamSink struct {
	*telemetry.StreamSink
	out   *countingWriter
	timed bool
	busy  time.Duration
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func newStreamSink(timed bool) *streamSink {
	out := &countingWriter{}
	return &streamSink{StreamSink: telemetry.NewStreamSink(out), out: out, timed: timed}
}

func (s *streamSink) Event(e telemetry.Event) {
	if !s.timed {
		s.StreamSink.Event(e)
		return
	}
	t0 := time.Now()
	s.StreamSink.Event(e)
	s.busy += time.Since(t0)
}

func (s *streamSink) Sample(sm telemetry.Sample) {
	if !s.timed {
		s.StreamSink.Sample(sm)
		return
	}
	t0 := time.Now()
	s.StreamSink.Sample(sm)
	s.busy += time.Since(t0)
}
