package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// calls registers a kind whose payload is the function to run, the
// shortest way to script an engine in a test.
func calls(e *Engine) Kind {
	return e.Handle("call", func(p any) { p.(func())() })
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	call := calls(e)
	var order []int
	e.Schedule(30, call, func() { order = append(order, 3) })
	e.Schedule(10, call, func() { order = append(order, 1) })
	e.Schedule(20, call, func() { order = append(order, 2) })
	for e.Step() {
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestSameTickFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	record := e.Handle("record", func(p any) { order = append(order, p.(int)) })
	for i := 0; i < 10; i++ {
		e.Schedule(5, record, i)
	}
	for e.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick events not FIFO: %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	call := calls(e)
	var at Tick
	e.Schedule(100, call, func() {
		e.After(50, call, func() { at = e.Now() })
	})
	for e.Step() {
	}
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	call := calls(e)
	e.Schedule(10, call, func() {})
	for e.Step() {
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Schedule(5, call, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	call := calls(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	e.After(-1, call, func() {})
}

func TestHandleDuplicateNamePanics(t *testing.T) {
	e := NewEngine()
	calls(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering a kind name twice")
		}
	}()
	calls(e)
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var ran []Tick
	record := e.Handle("record", func(p any) { ran = append(ran, p.(Tick)) })
	for _, at := range []Tick{1, 5, 10, 11, 20} {
		e.Schedule(at, record, at)
	}
	n := e.RunUntil(10)
	if n != 3 {
		t.Fatalf("RunUntil executed %d events, want 3", n)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %d, want 10", e.Now())
	}
	n = e.RunUntil(100)
	if n != 2 || e.Now() != 100 {
		t.Fatalf("second RunUntil: n=%d now=%d", n, e.Now())
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("clock = %d, want 500", e.Now())
	}
}

func TestStopMidRun(t *testing.T) {
	e := NewEngine()
	count := 0
	tick := e.Handle("tick", func(any) {
		count++
		if count == 4 {
			e.Stop()
		}
	})
	for i := Tick(1); i <= 10; i++ {
		e.Schedule(i, tick, nil)
	}
	e.RunUntil(100)
	if count != 4 {
		t.Fatalf("executed %d events after Stop, want 4", count)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", e.Pending())
	}
}

func TestSelfReschedulingProcess(t *testing.T) {
	e := NewEngine()
	fires := 0
	var periodic Kind
	periodic = e.Handle("periodic", func(any) {
		fires++
		e.After(10, periodic, nil)
	})
	e.Schedule(0, periodic, nil)
	e.RunUntil(100)
	// Fires at 0,10,...,100 inclusive.
	if fires != 11 {
		t.Fatalf("periodic fired %d times, want 11", fires)
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	nop := e.Handle("nop", func(any) {})
	for i := Tick(0); i < 5; i++ {
		e.Schedule(i, nop, nil)
	}
	for e.Step() {
	}
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
}

// Property: for any multiset of schedule times, execution order is
// non-decreasing in time.
func TestQuickTimeMonotonic(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var seen []Tick
		record := e.Handle("record", func(p any) { seen = append(seen, p.(Tick)) })
		for _, at := range times {
			e.Schedule(Tick(at), record, Tick(at))
		}
		for e.Step() {
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

// logEngine returns an engine with two kinds, registered in the given
// order, whose handlers append "name@tick:payload" to log. The "echo"
// handler also schedules a "note" one tick later, so a restored queue
// must keep scheduling through the same handlers.
func logEngine(log *[]string, order ...string) (*Engine, map[string]Kind) {
	e := NewEngine()
	kinds := map[string]Kind{}
	for _, name := range order {
		name := name
		kinds[name] = e.Handle(name, func(p any) {
			*log = append(*log, fmt.Sprintf("%s@%d:%v", name, e.Now(), p))
			if name == "echo" {
				e.After(1, kinds["note"], p)
			}
		})
	}
	return e, kinds
}

// TestRestoreRunsTheSameHandlers cuts a queue of data events and
// restores it into an engine that registered its kinds in the other
// order: names, not registration order, pick the handler, and the
// restored run logs exactly what the uncut run logs after the cut.
func TestRestoreRunsTheSameHandlers(t *testing.T) {
	var ref, got []string
	a, kinds := logEngine(&ref, "echo", "note")
	for i := 0; i < 6; i++ {
		a.Schedule(Tick(3+i%3), kinds["echo"], i)
		a.Schedule(Tick(3+i%2), kinds["note"], -i)
	}
	a.RunUntil(3)
	now, next, pending := a.Now(), a.NextSeq(), a.Pendings()
	cut := len(ref)
	for a.Step() {
	}

	b, _ := logEngine(&got, "note", "echo")
	if err := b.Restore(now, next, pending); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if b.Pending() != len(pending) || b.NextSeq() != next || b.Now() != now {
		t.Fatalf("restored engine: pending %d now %d next %d, want %d %d %d", b.Pending(), b.Now(), b.NextSeq(), len(pending), now, next)
	}
	for b.Step() {
	}
	if want := strings.Join(ref[cut:], " "); strings.Join(got, " ") != want {
		t.Fatalf("restored run diverged:\n got %v\nwant %s", got, want)
	}
}

// TestRestoreRejectsDefects feeds Restore queues no engine could have
// exported: each must fail with an error naming its defect.
func TestRestoreRejectsDefects(t *testing.T) {
	valid := []PendingEvent{
		{At: 10, Name: "echo", Seq: 4, Payload: 1},
		{At: 10, Name: "note", Seq: 6, Payload: 2},
		{At: 12, Name: "echo", Seq: 5, Payload: 3},
	}
	cases := []struct {
		name   string
		mutate func(evs []PendingEvent)
		want   string
	}{
		{"pristine", func([]PendingEvent) {}, ""},
		{"due before now", func(evs []PendingEvent) { evs[0].At = 9 }, "before now"},
		{"seq at next seq", func(evs []PendingEvent) { evs[2].Seq = 7 }, "next seq"},
		{"unregistered kind", func(evs []PendingEvent) { evs[1].Name = "ghost" }, `"ghost" at tick 10 has no registered handler`},
		{"shared seq, same tick", func(evs []PendingEvent) { evs[1].Seq = 4 }, "share seq 4"},
		{"shared seq, other tick", func(evs []PendingEvent) { evs[2].Seq = 6 }, "share seq 6"},
	}
	for _, tc := range cases {
		evs := append([]PendingEvent(nil), valid...)
		tc.mutate(evs)
		var log []string
		e, _ := logEngine(&log, "echo", "note")
		err := e.Restore(10, 7, evs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Restore: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: Restore accepted the queue", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
