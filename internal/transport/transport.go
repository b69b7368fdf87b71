// Package transport simulates the message-passing layer under the overlay.
//
// The paper's model is the simplest possible: "We do not model transmission
// delays or losses and all messages are delivered instantly to the
// recipient using distributed hash tables." The Bus reproduces exactly
// that model: every send is delivered synchronously and nothing is lost.
// The one fault it models is a crashed destination, which exercises the
// redundancy the protocol builds in ("in case a score manager crashes
// before being able to contact the new peer's score managers").
package transport

import (
	"maps"

	"repro/internal/id"
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
	Dropped   int64 // always 0: the bus loses nothing
	Crashed   int64 // destined to a crashed node
	NoRoute   int64 // destination never registered
}

// Bus is the simulated network. It is not safe for concurrent use; the
// simulation core is single-threaded (see package sim).
type Bus struct {
	handlers map[id.ID]Handler
	crashed  map[id.ID]bool
	stats    Stats
}

// NewBus returns a bus with the paper's network model: instant, lossless
// delivery.
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

// Stats returns a copy of the activity counters.
func (b *Bus) Stats() Stats { return b.stats }

// Send counts the message and delivers it: the destination handler runs
// before Send returns, which is exactly the paper's instant-delivery
// assumption. A crashed or unregistered destination swallows it.
func (b *Bus) Send(m Message) {
	b.stats.Sent++
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

// SendBatch sends the same payload to every destination, one Send each:
//
//   - messages go out in to order;
//   - a message a handler sends mid-batch is delivered before the next
//     destination's;
//   - crash and route checks happen per destination, at its delivery, so
//     a handler that crashes a later destination stops its delivery.
func (b *Bus) SendBatch(from id.ID, kind string, payload any, to []id.ID) {
	for _, dst := range to {
		b.Send(Message{From: from, To: dst, Kind: kind, Payload: payload})
	}
}
