// Package transport simulates the message-passing layer under the overlay.
//
// The paper's model is the simplest possible: "We do not model transmission
// delays or losses and all messages are delivered instantly to the
// recipient using distributed hash tables." The Bus reproduces that model
// by default (synchronous, lossless delivery), and additionally supports
// fault injection — per-destination crash, message loss probability and
// fixed delivery delay — so the test suite can exercise the redundancy the
// protocol builds in ("in case a score manager crashes before being able to
// contact the new peer's score managers").
package transport

import (
	"fmt"
	"maps"

	"repro/internal/id"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Message is one unit of communication between simulated nodes.
type Message struct {
	From    id.ID
	To      id.ID
	Kind    string // protocol message name, e.g. "lend", "credit", "audit-ok"
	Payload any
}

// Handler consumes messages delivered to a registered address.
type Handler func(Message)

// Stats counts transport activity for assertions and reports.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64 // lost to injected loss
	Crashed   int64 // destined to a crashed node
	NoRoute   int64 // destination never registered
}

// Bus is the simulated network. It is not safe for concurrent use; the
// simulation core is single-threaded (see package sim).
type Bus struct {
	handlers map[id.ID]Handler
	crashed  map[id.ID]bool
	stats    Stats

	// Fault injection; all zero by default = the paper's instant lossless
	// network. Delayed deliveries are events of two kinds registered on
	// engine: one message, or one batch.
	lossProb    float64
	delay       sim.Tick
	engine      *sim.Engine
	deliverKind sim.Kind
	batchKind   sim.Kind
	rand        *rng.Source
}

// delayedBatch is the payload of a delayed SendBatch: the surviving
// destinations of one fan-out, delivered in order from one event.
type delayedBatch struct {
	from    id.ID
	kind    string
	payload any
	to      []id.ID
}

// NewBus returns a bus with the paper's default network model: instant,
// lossless delivery.
func NewBus() *Bus {
	return &Bus{
		handlers: make(map[id.ID]Handler),
		crashed:  make(map[id.ID]bool),
	}
}

// Register binds an address to a handler, replacing any previous handler,
// and clears a crash flag if one was set (a node re-registering has
// recovered).
func (b *Bus) Register(addr id.ID, h Handler) {
	if h == nil {
		//replend:allow nopanic construction-time misuse guard: callers register handlers at attach, before any run starts
		panic("transport: registering nil handler")
	}
	b.handlers[addr] = h
	delete(b.crashed, addr)
}

// Reserve makes room for n more handlers, so registering a restored
// community's members grows the table once instead of step by step.
func (b *Bus) Reserve(n int) {
	if n <= 0 {
		return
	}
	handlers := make(map[id.ID]Handler, len(b.handlers)+n)
	maps.Copy(handlers, b.handlers)
	b.handlers = handlers
}

// Unregister removes an address. Subsequent sends count as NoRoute.
func (b *Bus) Unregister(addr id.ID) {
	delete(b.handlers, addr)
	delete(b.crashed, addr)
}

// Crash marks an address as crashed: messages to it are swallowed (counted
// in Stats.Crashed) until Recover or Register is called.
func (b *Bus) Crash(addr id.ID) { b.crashed[addr] = true }

// Recover clears a crash flag.
func (b *Bus) Recover(addr id.ID) { delete(b.crashed, addr) }

// IsCrashed reports whether the address is currently crashed.
func (b *Bus) IsCrashed(addr id.ID) bool { return b.crashed[addr] }

// SetLoss configures an independent loss probability per message. A
// non-zero loss probability requires a randomness source via SetFaultRand.
func (b *Bus) SetLoss(p float64) {
	if p < 0 || p > 1 {
		//replend:allow nopanic construction-time misuse guard: fault injection is configured before any run starts
		panic(fmt.Sprintf("transport: loss probability %v out of [0,1]", p))
	}
	b.lossProb = p
}

// SetFaultRand supplies the randomness used by injected loss.
func (b *Bus) SetFaultRand(r *rng.Source) { b.rand = r }

// SetDelay configures a fixed delivery delay in ticks, scheduled on the
// given engine, on which the first call registers the "deliver" and
// "deliver-batch" event kinds. A zero delay restores synchronous
// delivery.
func (b *Bus) SetDelay(e *sim.Engine, d sim.Tick) {
	if d < 0 {
		//replend:allow nopanic construction-time misuse guard: fault injection is configured before any run starts
		panic("transport: negative delay")
	}
	if d > 0 && e == nil {
		//replend:allow nopanic construction-time misuse guard: fault injection is configured before any run starts
		panic("transport: delay requires an engine")
	}
	if e != nil && e != b.engine {
		b.engine = e
		b.deliverKind = e.Handle("deliver", func(m any) { b.deliver(m.(Message)) })
		b.batchKind = e.Handle("deliver-batch", func(batch any) {
			d := batch.(delayedBatch)
			for _, dst := range d.to {
				b.deliver(Message{From: d.from, To: dst, Kind: d.kind, Payload: d.payload})
			}
		})
	}
	b.delay = d
}

// Stats returns a copy of the activity counters.
func (b *Bus) Stats() Stats { return b.stats }

// Send delivers the message subject to the configured network model. With
// the defaults it invokes the destination handler before returning, which
// is exactly the paper's instant-delivery assumption.
func (b *Bus) Send(m Message) {
	b.stats.Sent++
	if b.lossProb > 0 {
		if b.rand == nil {
			//replend:allow nopanic configuration invariant: SetLoss documents the SetFaultRand requirement; caught by the first send in any test
			panic("transport: loss configured without SetFaultRand")
		}
		if b.rand.Bernoulli(b.lossProb) {
			b.stats.Dropped++
			return
		}
	}
	if b.delay > 0 {
		b.engine.After(b.delay, b.deliverKind, m)
		return
	}
	b.deliver(m)
}

func (b *Bus) deliver(m Message) {
	if b.crashed[m.To] {
		b.stats.Crashed++
		return
	}
	h, ok := b.handlers[m.To]
	if !ok {
		b.stats.NoRoute++
		return
	}
	b.stats.Delivered++
	h(m)
}

// Broadcast sends the same payload to each destination, preserving order.
// It is the per-message reference path; SendBatch is the coalesced form
// the lending fan-outs use, and the two are byte-equivalent by contract
// (pinned by the transport equivalence tests).
func (b *Bus) Broadcast(from id.ID, kind string, payload any, to []id.ID) {
	for _, dst := range to {
		b.Send(Message{From: from, To: dst, Kind: kind, Payload: payload})
	}
}

// SendBatch delivers the same payload to every destination as one bus
// operation. It is observably equivalent to calling Send per
// destination in order:
//
//   - synchronous delivery (no delay) interleaves exactly as a Send
//     loop: one loss draw, then that destination's delivery (whose
//     handler may itself send, consuming draws), then the next draw —
//     so RNG consumption and nested-send ordering are preserved;
//   - delayed delivery draws every destination's loss up front — which
//     is what the Send loop does too, since deferred deliveries mean no
//     handler runs between the draws — and coalesces the survivors into
//     one scheduled event. Per-message Sends would occupy consecutive
//     sequence numbers with no other event able to interleave (the
//     sending loop runs inside a single event, and anything scheduled
//     afterwards gets a later sequence number), so delivering the whole
//     batch in order from one event preserves the execution order;
//   - crash flags are checked at delivery time per destination, in both
//     the synchronous and the delayed form, as Send does.
//
// The one intentional divergence is scheduler bookkeeping: a delayed
// batch consumes one event (and one sequence number) instead of N.
// Sequence numbers never feed output bytes, and snapshots are refused
// while transport faults are active, so the difference is invisible to
// the byte-identity contract.
func (b *Bus) SendBatch(from id.ID, kind string, payload any, to []id.ID) {
	if len(to) == 0 {
		return
	}
	if b.lossProb > 0 && b.rand == nil {
		//replend:allow nopanic configuration invariant: SetLoss documents the SetFaultRand requirement; caught by the first send in any test
		panic("transport: loss configured without SetFaultRand")
	}
	if b.delay > 0 {
		b.stats.Sent += int64(len(to))
		live := to
		if b.lossProb > 0 {
			kept := make([]id.ID, 0, len(to))
			for _, dst := range to {
				if b.rand.Bernoulli(b.lossProb) {
					b.stats.Dropped++
					continue
				}
				kept = append(kept, dst)
			}
			live = kept
		}
		batch := delayedBatch{from: from, kind: kind, payload: payload, to: append([]id.ID(nil), live...)}
		b.engine.After(b.delay, b.batchKind, batch)
		return
	}
	for _, dst := range to {
		b.stats.Sent++
		if b.lossProb > 0 && b.rand.Bernoulli(b.lossProb) {
			b.stats.Dropped++
			continue
		}
		b.deliver(Message{From: from, To: dst, Kind: kind, Payload: payload})
	}
}
