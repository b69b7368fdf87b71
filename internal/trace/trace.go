// Package trace records the structured event log of a simulation run: who
// arrived, who introduced whom, what was lent, how audits resolved, which
// peers were refused and why. The log is an ordinary telemetry sink: a
// run attaches it to the world's telemetry bus, and it keeps the events
// it hears for replayable summaries and the invariant checks the test
// suite runs over whole simulations (for example: every audit must refer
// to an earlier admission).
package trace

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// Log is an append-only event recorder and a telemetry.Sink. The zero
// value is ready to use. It is not safe for concurrent use (the
// simulation is single-threaded).
//
// A bounded log retains at most limit events, but the per-kind counters
// stay exact: every event past the limit still increments its kind's
// count and the dropped total, so Summary and Count report the whole
// run even when the event bodies are gone.
type Log struct {
	events  []telemetry.Event
	limit   int
	counts  map[telemetry.Kind]int64
	dropped int64
}

// New returns a log that keeps at most limit events (0 = unlimited).
// Long runs at paper scale produce hundreds of thousands of events; a
// bounded log keeps memory flat while the counters stay exact.
func New(limit int) *Log {
	return &Log{limit: limit}
}

// Event implements telemetry.Sink: it counts one event, appending its
// body unless the retention limit is reached (then only the exact
// counters advance).
func (l *Log) Event(e telemetry.Event) {
	if l.counts == nil {
		l.counts = make(map[telemetry.Kind]int64)
	}
	l.counts[e.Kind]++
	if l.limit > 0 && len(l.events) >= l.limit {
		l.dropped++
		return
	}
	l.events = append(l.events, e)
}

// Sample implements telemetry.Sink; the event log ignores metric samples.
func (l *Log) Sample(telemetry.Sample) {}

// Flush implements telemetry.Sink; an in-memory log has nothing to flush.
func (l *Log) Flush() error { return nil }

// Len returns the number of retained events.
func (l *Log) Len() int { return len(l.events) }

// Dropped returns the exact number of events recorded past the retention
// limit (their bodies were discarded; their kind counts were not).
func (l *Log) Dropped() int64 { return l.dropped }

// Count returns the exact number of events of one kind recorded over the
// whole run, including events whose bodies were dropped.
func (l *Log) Count(kind telemetry.Kind) int64 { return l.counts[kind] }

// Total returns the exact number of events recorded (retained + dropped).
func (l *Log) Total() int64 { return int64(len(l.events)) + l.dropped }

// Events returns the retained events (copy).
func (l *Log) Events() []telemetry.Event {
	return append([]telemetry.Event(nil), l.events...)
}

// Summary renders exact per-kind counts plus the first few retained
// events of each kind, a compact debugging view of a whole run. The
// counts cover every recorded event — dropped ones included — and a
// trailing line reports how many event bodies the retention limit
// discarded.
func (l *Log) Summary(perKind int) string {
	firsts := map[telemetry.Kind][]telemetry.Event{}
	for _, e := range l.events {
		if len(firsts[e.Kind]) < perKind {
			firsts[e.Kind] = append(firsts[e.Kind], e)
		}
	}
	var b strings.Builder
	for _, k := range telemetry.Kinds() {
		if l.counts[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %6d", k, l.counts[k])
		for i, e := range firsts[k] {
			if i == 0 {
				b.WriteString("  e.g. ")
			} else {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "t=%d %s", e.At, e.Peer)
			if e.Other != "" {
				fmt.Fprintf(&b, "<-%s", e.Other)
			}
			if e.Detail != "" {
				fmt.Fprintf(&b, " (%s)", e.Detail)
			}
		}
		b.WriteString("\n")
	}
	if l.dropped > 0 {
		fmt.Fprintf(&b, "%d events dropped past the retention limit (counts above remain exact)\n", l.dropped)
	}
	return b.String()
}

// Verify checks causal invariants over the retained events and returns
// every violation found:
//
//   - an admitted/refused event must follow an arrival of the same peer
//   - a peer cannot be both admitted and refused
//   - an audit event must follow the peer's admission
//   - a rejoined event must follow a departure of the same peer
//   - events must be time-ordered
//
// A bounded log can only be verified if nothing was dropped; Verify
// reports the exact number of dropped events as a violation too.
func (l *Log) Verify() []string {
	var violations []string
	if l.dropped > 0 {
		violations = append(violations, fmt.Sprintf("%d events dropped past the retention limit; verification incomplete", l.dropped))
	}
	arrived := map[string]bool{}
	admitted := map[string]bool{}
	refused := map[string]bool{}
	departed := map[string]bool{}
	var prev int64
	for i, e := range l.events {
		if e.At < prev {
			violations = append(violations, fmt.Sprintf("event %d at t=%d precedes t=%d", i, e.At, prev))
		}
		prev = e.At
		switch e.Kind {
		case telemetry.Arrival:
			arrived[e.Peer] = true
		case telemetry.Admitted:
			if !arrived[e.Peer] {
				violations = append(violations, fmt.Sprintf("peer %s admitted without arrival", e.Peer))
			}
			if refused[e.Peer] {
				violations = append(violations, fmt.Sprintf("peer %s admitted after refusal", e.Peer))
			}
			admitted[e.Peer] = true
		case telemetry.Refused:
			if !arrived[e.Peer] {
				violations = append(violations, fmt.Sprintf("peer %s refused without arrival", e.Peer))
			}
			if admitted[e.Peer] {
				violations = append(violations, fmt.Sprintf("peer %s refused after admission", e.Peer))
			}
			refused[e.Peer] = true
		case telemetry.AuditOK, telemetry.AuditFail:
			if !admitted[e.Peer] {
				violations = append(violations, fmt.Sprintf("peer %s audited without admission", e.Peer))
			}
		case telemetry.Departed:
			departed[e.Peer] = true
		case telemetry.Rejoined:
			if !departed[e.Peer] {
				violations = append(violations, fmt.Sprintf("peer %s rejoined without departing", e.Peer))
			}
			delete(departed, e.Peer)
		}
	}
	return violations
}
