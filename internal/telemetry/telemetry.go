// Package telemetry is the simulator's streaming observability layer: a
// deterministic event bus the world, churn, lending, workload and fleet
// layers publish into, with pluggable sinks. The bus is the world's only
// event path: the classic end-of-run surfaces — trace.Log's bounded
// event buffer and metrics.Series — are two sinks among several; the
// streaming JSONL sink exports the same records incrementally with
// bounded memory, which is what million-peer runs and a future serve
// mode need.
//
// The determinism contract: telemetry is write-only from the
// simulation's point of view. Publishing an event never draws
// randomness, never mutates world state, and never returns information
// the simulation could branch on — a run with every sink attached
// produces byte-identical results to a run with none. The replend-lint
// telemetrypurity rule enforces the package-level half of that contract
// (no RNG, no simulation-state imports); the world tests pin the
// byte-identity half.
package telemetry

// Kind classifies an event.
type Kind string

// The event kinds a run can produce.
const (
	Arrival   Kind = "arrival"   // a peer arrived and asked for an introduction
	Admitted  Kind = "admitted"  // the lend executed; the peer is in
	Refused   Kind = "refused"   // the attempt ended without admission
	AuditOK   Kind = "audit-ok"  // audit satisfied; stake returned + reward
	AuditFail Kind = "audit-bad" // audit unsatisfied; stake forfeited
	Flagged   Kind = "flagged"   // duplicate-introduction punishment
	Departed  Kind = "departed"  // an admitted member left (detail: "leave" or "crash")
	Rejoined  Kind = "rejoined"  // a departed member returned, reputation restored
	Wipeout   Kind = "wipeout"   // every replica of a peer's reputation died at once
	// Stake lifecycle events (detail: "refunded" or "stranded"): the
	// audit-timeout clock resolved a pending stake, or the offline-record
	// TTL expired a departed newcomer's stake record.
	StakeClosed  Kind = "stake-closed"
	StakeExpired Kind = "stake-expired"
	// LeaseEvicted: the record lease of a departed peer expired — its
	// reputation replicas were evicted and its rejoin eligibility dropped.
	LeaseEvicted Kind = "lease-evict"
)

// kindOrder is the fixed rendering order of kinds; every Kind declared
// above appears exactly once.
var kindOrder = []Kind{Arrival, Admitted, Refused, AuditOK, AuditFail, Flagged, Departed, Rejoined, Wipeout, StakeClosed, StakeExpired, LeaseEvicted}

// Kinds returns every event kind in its fixed rendering order (copy).
func Kinds() []Kind { return append([]Kind(nil), kindOrder...) }

// Event is one trace-style record flowing through the bus: who arrived,
// who was admitted or refused, how an audit resolved.
type Event struct {
	At   int64 `json:"at"`
	Kind Kind  `json:"kind"`
	// Peer is the short form of the peer the event is about.
	Peer string `json:"peer,omitempty"`
	// Other is the counterparty when one exists (the introducer for
	// arrival/admitted/refused/audit events).
	Other string `json:"other,omitempty"`
	// Detail carries the refusal reason or other annotation.
	Detail string `json:"detail,omitempty"`
}

// Sample is one metric sample: a named series' value at a tick.
type Sample struct {
	At     int64   `json:"at"`
	Series string  `json:"series"`
	Value  float64 `json:"v"`
}

// Sink consumes the record stream. Implementations must not feed
// anything back into the simulation; they are observers only. Flush
// drains any buffering and reports the first write error.
type Sink interface {
	Event(Event)
	Sample(Sample)
	Flush() error
}

// Bus fans records out to its sinks in attach order — a fixed,
// deterministic order, so any sink that writes somewhere observable
// sees the exact same sequence on every run. A nil *Bus is a valid
// no-op bus, so publishers can hold one unconditionally.
type Bus struct {
	sinks []Sink
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Attach adds a sink; records published afterwards reach it. Sinks
// receive records in attach order.
func (b *Bus) Attach(s Sink) { b.sinks = append(b.sinks, s) }

// Active reports whether any sink is attached. Publishers use it to
// skip building records (formatting peer IDs, say) nobody would see.
func (b *Bus) Active() bool { return b != nil && len(b.sinks) > 0 }

// Event publishes one event to every sink.
func (b *Bus) Event(e Event) {
	if b == nil {
		return
	}
	for _, s := range b.sinks {
		s.Event(e)
	}
}

// Sample publishes one metric sample to every sink.
func (b *Bus) Sample(s Sample) {
	if b == nil {
		return
	}
	for _, snk := range b.sinks {
		snk.Sample(s)
	}
}

// Flush flushes every sink in attach order and returns the first error.
func (b *Bus) Flush() error {
	if b == nil {
		return nil
	}
	var first error
	for _, s := range b.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
