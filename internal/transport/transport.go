// Package transport simulates the message-passing layer under the overlay.
//
// The paper's model is the simplest possible: "We do not model transmission
// delays or losses and all messages are delivered instantly to the
// recipient using distributed hash tables." Delivery is therefore a plain
// call: the sender invokes the recipient's handler itself, and the Bus only
// decides whether the message arrives and counts it. The one fault it
// models is a crashed destination, which exercises the redundancy the
// protocol builds in ("in case a score manager crashes before being able to
// contact the new peer's score managers").
package transport

import "repro/internal/id"

// Stats counts transport activity for assertions and reports.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64 // always 0: the bus loses nothing
	Crashed   int64 // destined to a crashed node
	NoRoute   int64 // destination not registered
}

// Bus is the simulated network: the nodes' crash flags and the activity
// counters. It is not safe for concurrent use; the simulation core is
// single-threaded (see package sim).
type Bus struct {
	crashed map[id.ID]bool
	stats   Stats
}

// NewBus returns a bus with the paper's network model: instant, lossless
// delivery.
func NewBus() *Bus {
	return &Bus{crashed: make(map[id.ID]bool)}
}

// Crash marks an address as crashed: messages to it are swallowed (counted
// in Stats.Crashed) until Recover is called.
func (b *Bus) Crash(addr id.ID) { b.crashed[addr] = true }

// Recover clears a crash flag.
func (b *Bus) Recover(addr id.ID) { delete(b.crashed, addr) }

// IsCrashed reports whether the address is currently crashed.
func (b *Bus) IsCrashed(addr id.ID) bool { return b.crashed[addr] }

// Stats returns a copy of the activity counters.
func (b *Bus) Stats() Stats { return b.stats }

// Deliver counts one message to node and reports whether it arrives: a
// crashed node swallows it, and otherwise it arrives when routed, that is
// when the sender knows node as a registered recipient. On true the
// sender runs node's handler at once, which is exactly the paper's
// instant-delivery assumption.
func (b *Bus) Deliver(node id.ID, routed bool) bool {
	b.stats.Sent++
	switch {
	case b.crashed[node]:
		b.stats.Crashed++
		return false
	case !routed:
		b.stats.NoRoute++
		return false
	}
	b.stats.Delivered++
	return true
}
