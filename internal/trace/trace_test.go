package trace

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/telemetry"
)

// ev builds the event the world publishes for peer p (and counterparty
// other, 0 for none).
func ev(at int64, kind telemetry.Kind, p, other uint64, detail string) telemetry.Event {
	e := telemetry.Event{At: at, Kind: kind, Peer: id.FromUint64(p).Short(), Detail: detail}
	if other != 0 {
		e.Other = id.FromUint64(other).Short()
	}
	return e
}

func TestRecordAndFilter(t *testing.T) {
	l := New(0)
	l.Event(ev(1, telemetry.Arrival, 1, 9, "cooperative"))
	l.Event(ev(2, telemetry.Admitted, 1, 9, "cooperative"))
	l.Event(ev(3, telemetry.Arrival, 2, 9, "uncooperative"))
	l.Event(ev(4, telemetry.Refused, 2, 9, "refused-by-introducer"))
	if l.Len() != 4 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := l.Count(telemetry.Arrival); got != 2 {
		t.Fatalf("arrivals = %d", got)
	}
	evs := l.Events()
	if evs[0].Other == "" || evs[0].Peer == "" {
		t.Fatalf("event fields missing: %+v", evs[0])
	}
}

func TestZeroOtherOmitted(t *testing.T) {
	l := New(0)
	l.Event(ev(1, telemetry.Flagged, 1, 0, "duplicate introduction"))
	l.Event(ev(2, telemetry.Arrival, 2, 9, ""))
	s := l.Summary(1)
	if !strings.Contains(s, "t=1 "+id.FromUint64(1).Short()+" (duplicate introduction)") {
		t.Fatalf("summary shows a counterparty for an event without one:\n%s", s)
	}
	if !strings.Contains(s, "<-"+id.FromUint64(9).Short()) {
		t.Fatalf("summary drops a real counterparty:\n%s", s)
	}
}

func TestLimitDropsSilently(t *testing.T) {
	l := New(2)
	for i := int64(0); i < 5; i++ {
		l.Event(ev(i, telemetry.Arrival, uint64(i), 0, ""))
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestSummary(t *testing.T) {
	l := New(0)
	l.Event(ev(1, telemetry.Arrival, 1, 9, ""))
	l.Event(ev(2, telemetry.Admitted, 1, 9, ""))
	l.Event(ev(3, telemetry.Arrival, 2, 9, ""))
	l.Event(ev(4, telemetry.Refused, 2, 9, "selective"))
	s := l.Summary(1)
	for _, want := range []string{"arrival", "admitted", "refused", "2", "1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "audit-ok") {
		t.Fatal("summary shows kinds with zero count")
	}
}

func TestVerifyCleanLog(t *testing.T) {
	l := New(0)
	l.Event(ev(1, telemetry.Arrival, 1, 9, ""))
	l.Event(ev(2, telemetry.Admitted, 1, 9, ""))
	l.Event(ev(3, telemetry.AuditOK, 1, 9, ""))
	if v := l.Verify(); len(v) != 0 {
		t.Fatalf("clean log reported violations: %v", v)
	}
}

func TestVerifyCatchesAdmissionWithoutArrival(t *testing.T) {
	l := New(0)
	l.Event(ev(1, telemetry.Admitted, 1, 9, ""))
	if v := l.Verify(); len(v) == 0 {
		t.Fatal("missed admission without arrival")
	}
}

func TestVerifyCatchesAuditWithoutAdmission(t *testing.T) {
	l := New(0)
	l.Event(ev(1, telemetry.Arrival, 1, 9, ""))
	l.Event(ev(2, telemetry.AuditFail, 1, 9, ""))
	if v := l.Verify(); len(v) == 0 {
		t.Fatal("missed audit without admission")
	}
}

func TestVerifyCatchesAdmitAndRefuse(t *testing.T) {
	l := New(0)
	l.Event(ev(1, telemetry.Arrival, 1, 9, ""))
	l.Event(ev(2, telemetry.Admitted, 1, 9, ""))
	l.Event(ev(3, telemetry.Refused, 1, 9, ""))
	if v := l.Verify(); len(v) == 0 {
		t.Fatal("missed refuse-after-admit")
	}
}

func TestVerifyCatchesTimeDisorder(t *testing.T) {
	l := New(0)
	l.Event(ev(5, telemetry.Arrival, 1, 9, ""))
	l.Event(ev(3, telemetry.Arrival, 2, 9, ""))
	if v := l.Verify(); len(v) == 0 {
		t.Fatal("missed time disorder")
	}
}

func TestVerifyCatchesRejoinWithoutDeparture(t *testing.T) {
	l := New(0)
	l.Event(ev(1, telemetry.Departed, 1, 0, "leave"))
	l.Event(ev(2, telemetry.Rejoined, 1, 0, ""))
	if v := l.Verify(); len(v) != 0 {
		t.Fatalf("depart then rejoin reported violations: %v", v)
	}
	l.Event(ev(3, telemetry.Rejoined, 1, 0, ""))
	if v := l.Verify(); len(v) != 1 {
		t.Fatalf("second rejoin without a departure: violations %v, want one", v)
	}
}

func TestVerifyReportsTruncation(t *testing.T) {
	l := New(1)
	l.Event(ev(1, telemetry.Arrival, 1, 9, ""))
	l.Event(ev(2, telemetry.Admitted, 1, 9, ""))
	found := false
	for _, v := range l.Verify() {
		if strings.Contains(v, "retention limit") {
			found = true
			if !strings.Contains(v, "1 events dropped") {
				t.Fatalf("violation does not carry the exact dropped count: %q", v)
			}
		}
	}
	if !found {
		t.Fatal("truncated log verified silently")
	}
}

func TestVerifyExactlyAtLimitIsComplete(t *testing.T) {
	l := New(2)
	l.Event(ev(1, telemetry.Arrival, 1, 9, ""))
	l.Event(ev(2, telemetry.Admitted, 1, 9, ""))
	if v := l.Verify(); len(v) != 0 {
		t.Fatalf("log filled to its limit with nothing dropped reported violations: %v", v)
	}
}

func TestCountersStayExactPastLimit(t *testing.T) {
	l := New(2)
	for i := int64(0); i < 5; i++ {
		l.Event(ev(i, telemetry.Arrival, uint64(i), 0, ""))
	}
	l.Event(ev(5, telemetry.Admitted, 0, 0, ""))
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if got := l.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	if got := l.Count(telemetry.Arrival); got != 5 {
		t.Fatalf("Count(telemetry.Arrival) = %d, want 5", got)
	}
	if got := l.Count(telemetry.Admitted); got != 1 {
		t.Fatalf("Count(telemetry.Admitted) = %d, want 1", got)
	}
	if got := l.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
}

// TestLogIsABusSink attaches a bounded log to a telemetry bus next to
// another sink: the log keeps exactly the events published, in order, up
// to its limit, counts every one, and ignores samples.
func TestLogIsABusSink(t *testing.T) {
	published := []telemetry.Event{
		ev(1, telemetry.Arrival, 1, 9, "cooperative"),
		ev(2, telemetry.Admitted, 1, 9, ""),
		ev(3, telemetry.Arrival, 2, 0, ""),
	}
	l, all := New(2), New(0)
	bus := telemetry.NewBus()
	bus.Attach(l)
	bus.Attach(all)
	for _, e := range published {
		bus.Event(e)
	}
	bus.Sample(telemetry.Sample{At: 3, Series: "coop", Value: 1}) // ignored
	if err := bus.Flush(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(all.Events(), published) {
		t.Fatalf("log events %v != published %v", all.Events(), published)
	}
	if !reflect.DeepEqual(l.Events(), published[:2]) {
		t.Fatalf("bounded log events %v != first two published %v", l.Events(), published[:2])
	}
	if l.Dropped() != 1 || l.Count(telemetry.Arrival) != 2 || l.Total() != 3 {
		t.Fatalf("bounded log counters: dropped %d, arrivals %d, total %d", l.Dropped(), l.Count(telemetry.Arrival), l.Total())
	}
}

// TestUnboundedLogGrowsLinearly pins the contrast side of the telemetry
// bounded-memory proof: an unlimited in-memory log retains every one of
// n events, where the streaming sink's retained ceiling stays constant
// (see telemetry.TestStreamSinkBoundedMemory).
func TestUnboundedLogGrowsLinearly(t *testing.T) {
	const n = 600_000
	l := New(0)
	for i := int64(0); i < n; i++ {
		l.Event(telemetry.Event{At: i, Kind: telemetry.Arrival, Peer: "peer"})
	}
	if l.Len() != n {
		t.Fatalf("unbounded log retained %d of %d events", l.Len(), n)
	}
}

func TestSummaryReportsExactCountsAndDrops(t *testing.T) {
	l := New(1)
	for i := int64(0); i < 3; i++ {
		l.Event(ev(i, telemetry.Arrival, uint64(i), 0, ""))
	}
	s := l.Summary(1)
	if !strings.Contains(s, "arrival         3") {
		t.Fatalf("summary count is not exact:\n%s", s)
	}
	if !strings.Contains(s, "2 events dropped") {
		t.Fatalf("summary does not surface the dropped count:\n%s", s)
	}
	unbounded := New(0)
	unbounded.Event(ev(1, telemetry.Arrival, 1, 0, ""))
	if strings.Contains(unbounded.Summary(1), "dropped") {
		t.Fatal("summary of a complete log mentions drops")
	}
}
