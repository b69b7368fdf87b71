// Package sim is the discrete-event engine at the bottom of the
// simulator: integer ticks, a priority queue of scheduled events with
// FIFO ordering inside a tick (which is what makes whole runs
// deterministic), and RunUntil/Step drivers that advance the clock even
// when the queue drains, so "run for n ticks" always means n ticks.
// Everything above it — the world's transaction loop, arrival and
// departure clocks, audit and stake timers — is expressed as events on
// this engine; nothing inside a run is concurrent.
//
// An event is plain data: a firing tick, a sequence number, a kind and
// a payload. Each kind is registered once, by name, with the handler
// that runs its events (Handle), so a checkpoint stores pending events
// as (kind name, payload) records and Restore re-queues them under the
// same handlers that ran them live.
package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// Tick is a point in simulation time. The paper schedules one resource
// transaction per tick.
type Tick int64

// Kind identifies a registered event handler. The zero Kind is never
// registered, so an event scheduled under a forgotten registration
// fails loudly instead of running another kind's handler.
type Kind int32

// Handler runs one event with the payload it was scheduled with.
type Handler func(payload any)

// kind is one registered handler.
type kind struct {
	name string
	run  Handler
}

// event is one queued unit of work. Events run at a tick; events at the
// same tick run in scheduling order (seq), which keeps runs
// deterministic.
type event struct {
	at      Tick
	seq     int64
	kind    Kind
	payload any
}

func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event scheduler. It is not safe for
// concurrent use; concurrency in the reproduction lives at the
// replica level (independent engines per goroutine).
type Engine struct {
	now     Tick
	queue   []event // binary min-heap on (at, seq)
	kinds   []kind  // kinds[k-1] is Kind k
	byName  map[string]Kind
	nextSeq int64
	ran     int64
	stopped bool
}

// NewEngine returns an engine positioned at tick 0 with an empty queue
// and no registered kinds.
func NewEngine() *Engine {
	return &Engine{byName: make(map[string]Kind)}
}

// Handle registers the handler for events of the named kind and returns
// the Kind to schedule them under. Names are unique per engine: they are
// what a checkpoint records and what Restore resolves.
func (e *Engine) Handle(name string, run Handler) Kind {
	if _, dup := e.byName[name]; dup {
		//replend:allow nopanic kinds are registered at construction from fixed names; a duplicate is a wiring bug no run-path data reaches
		panic(fmt.Sprintf("sim: event kind %q registered twice", name))
	}
	e.kinds = append(e.kinds, kind{name: name, run: run})
	k := Kind(len(e.kinds))
	e.byName[name] = k
	return k
}

// Now returns the current simulation time.
func (e *Engine) Now() Tick { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int64 { return e.ran }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule queues an event of kind k, carrying payload, to run at the
// absolute tick at. Scheduling in the past (before Now) is a programming
// error and panics: the simulator has no notion of retroactive work.
func (e *Engine) Schedule(at Tick, k Kind, payload any) {
	if at < e.now {
		//replend:allow nopanic scheduling into the past is a programming error by design (documented above); no run-path data reaches here
		panic(fmt.Sprintf("sim: scheduling %q at tick %d before now (%d)", e.kinds[k-1].name, at, e.now))
	}
	e.push(event{at: at, seq: e.nextSeq, kind: k, payload: payload})
	e.nextSeq++
}

// After queues an event of kind k to run delay ticks from now.
func (e *Engine) After(delay Tick, k Kind, payload any) {
	if delay < 0 {
		//replend:allow nopanic negative delays are a programming error by design; event bodies clamp their draws first
		panic(fmt.Sprintf("sim: negative delay %d for kind %d", delay, k))
	}
	e.Schedule(e.now+delay, k, payload)
}

// PendingEvent is the checkpoint view of one queued event: its firing
// tick, sequence number, the registered name of its kind, and its
// payload.
type PendingEvent struct {
	At      Tick
	Name    string
	Seq     int64
	Payload any
}

// Pendings returns the queued events in execution order (At, then
// scheduling order).
func (e *Engine) Pendings() []PendingEvent {
	out := make([]PendingEvent, len(e.queue))
	for i, ev := range e.queue {
		out[i] = PendingEvent{At: ev.at, Name: e.kinds[ev.kind-1].name, Seq: ev.seq, Payload: ev.payload}
	}
	slices.SortFunc(out, func(a, b PendingEvent) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}

// NextSeq returns the sequence number the next scheduled event would get.
// Together with Pendings and Now it pins the scheduler's full state.
func (e *Engine) NextSeq() int64 { return e.nextSeq }

// Restore resets the engine to a checkpointed scheduler state: clock at
// now, the given pending events re-queued under the handlers registered
// for their names with their original sequence numbers (preserving
// intra-tick FIFO order exactly), and the sequence counter at nextSeq.
// An event due before now, a sequence number at or past nextSeq or
// shared by two events, or a name no handler is registered under aborts
// the restore, leaving the engine in an unspecified state the caller
// must discard.
func (e *Engine) Restore(now Tick, nextSeq int64, events []PendingEvent) error {
	e.queue = e.queue[:0]
	e.now = now
	e.nextSeq = nextSeq
	e.stopped = false
	seqs := make([]int64, len(events))
	for i, pe := range events {
		if pe.At < now {
			return fmt.Errorf("sim: restore: event %q at tick %d before now (%d)", pe.Name, pe.At, now)
		}
		if pe.Seq >= nextSeq {
			return fmt.Errorf("sim: restore: event %q has seq %d >= next seq %d", pe.Name, pe.Seq, nextSeq)
		}
		k, ok := e.byName[pe.Name]
		if !ok {
			return fmt.Errorf("sim: restore: event %q at tick %d has no registered handler", pe.Name, pe.At)
		}
		seqs[i] = pe.Seq
		e.push(event{at: pe.At, seq: pe.Seq, kind: k, payload: pe.Payload})
	}
	slices.Sort(seqs)
	for i := 1; i < len(seqs); i++ {
		if seqs[i] == seqs[i-1] {
			return fmt.Errorf("sim: restore: two events share seq %d", seqs[i])
		}
	}
	return nil
}

// push adds ev to the heap.
func (e *Engine) push(ev event) {
	q := append(e.queue, ev)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

// pop removes and returns the earliest event of a non-empty heap.
func (e *Engine) pop() event {
	q := e.queue
	top, n := q[0], len(q)-1
	q[0], q[n] = q[n], event{} // the cleared slot drops its payload reference
	q = q[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && q[child+1].before(q[child]) {
			child++
		}
		if !q[child].before(q[i]) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	e.queue = q
	return top
}

// Stop makes the current Run invocation return after the in-flight event
// completes. Queued events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.ran++
	e.kinds[ev.kind-1].run(ev.payload)
	return true
}

// RunUntil executes events in order until the queue is empty, Stop is
// called, or the next event would run after the deadline tick. Events
// scheduled exactly at the deadline still run. It returns the number of
// events executed.
func (e *Engine) RunUntil(deadline Tick) int64 {
	e.stopped = false
	start := e.ran
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline && !e.stopped {
		// Advance the clock even if the queue drained early, so callers
		// observing Now see the full interval elapsed.
		e.now = deadline
	}
	return e.ran - start
}
