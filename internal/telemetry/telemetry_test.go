package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder is a test sink remembering the record sequence it saw.
type recorder struct {
	lines   []string
	flushes int
}

func (r *recorder) Event(e Event) {
	r.lines = append(r.lines, fmt.Sprintf("e:%d:%s:%s", e.At, e.Kind, e.Peer))
}
func (r *recorder) Sample(s Sample) {
	r.lines = append(r.lines, fmt.Sprintf("s:%d:%s:%g", s.At, s.Series, s.Value))
}
func (r *recorder) Flush() error { r.flushes++; return nil }

func TestBusFansOutInAttachOrder(t *testing.T) {
	b := NewBus()
	a, c := &recorder{}, &recorder{}
	b.Attach(a)
	b.Attach(c)
	if !b.Active() {
		t.Fatal("bus with sinks reports inactive")
	}
	b.Event(Event{At: 1, Kind: "arrival", Peer: "p1"})
	b.Sample(Sample{At: 2, Series: "coop", Value: 3})
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{"e:1:arrival:p1", "s:2:coop:3"}
	for _, r := range []*recorder{a, c} {
		if len(r.lines) != 2 || r.lines[0] != want[0] || r.lines[1] != want[1] {
			t.Fatalf("sink saw %v, want %v", r.lines, want)
		}
		if r.flushes != 1 {
			t.Fatalf("flushes = %d", r.flushes)
		}
	}
}

func TestNilAndEmptyBusAreNoops(t *testing.T) {
	var nilBus *Bus
	if nilBus.Active() {
		t.Fatal("nil bus active")
	}
	nilBus.Event(Event{})
	nilBus.Sample(Sample{})
	if err := nilBus.Flush(); err != nil {
		t.Fatal(err)
	}
	if NewBus().Active() {
		t.Fatal("empty bus active")
	}
}

func TestStreamSinkLineShapes(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamSink(&buf)
	s.Event(Event{At: 12, Kind: "arrival", Peer: "ab12", Other: "cd34", Detail: "cooperative"})
	s.Sample(Sample{At: 500, Series: "coop", Value: 100})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":"event","at":12,"kind":"arrival","peer":"ab12","other":"cd34","detail":"cooperative"}
{"t":"sample","at":500,"series":"coop","v":100}
`
	if buf.String() != want {
		t.Fatalf("stream =\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestStreamSinkBoundedMemory is the bounded-memory proof point: pushing
// well over 500k ticks' worth of events through the streaming sink holds
// the retained-record high-water mark at the flush ceiling — a small
// constant — while the equivalent unbounded in-memory log necessarily
// grows linearly with the run. (trace.Log demonstrates the linear side
// in its own package: an unbounded log's Len equals the event count.)
func TestStreamSinkBoundedMemory(t *testing.T) {
	const n = 600_000 // > 500k ticks, one event per tick
	var flushed int64
	s := NewStreamSink(countWriter{&flushed})
	for i := int64(0); i < n; i++ {
		s.Event(Event{At: i, Kind: "arrival", Peer: "peer"})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Written() != n {
		t.Fatalf("written = %d, want %d", s.Written(), n)
	}
	if s.PeakRetained() > DefaultFlushEvery {
		t.Fatalf("peak retained records = %d, want <= %d: the sink is not bounded", s.PeakRetained(), DefaultFlushEvery)
	}
	if flushed == 0 {
		t.Fatal("nothing reached the writer")
	}
}

type countWriter struct{ n *int64 }

func (w countWriter) Write(p []byte) (int, error) { *w.n += int64(len(p)); return len(p), nil }

// TestStreamSinkFlushEveryFloor: at the lowest threshold, 1, every
// record is flushed as it arrives.
func TestStreamSinkFlushEveryFloor(t *testing.T) {
	s := NewStreamSink(io.Discard)
	s.flushEvery = 1
	s.Event(Event{At: 1, Kind: "arrival"})
	s.Event(Event{At: 2, Kind: "arrival"})
	if s.PeakRetained() != 1 {
		t.Fatalf("peak = %d, want 1 (flush-every floor)", s.PeakRetained())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestStreamSinkStickyError(t *testing.T) {
	s := NewStreamSink(failWriter{})
	s.flushEvery = 1
	s.Event(Event{At: 1, Kind: "arrival"})
	err := s.Flush()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v", err)
	}
	s.Event(Event{At: 2, Kind: "arrival"})
	if got := s.Flush(); got == nil || !strings.Contains(got.Error(), "disk full") {
		t.Fatalf("error not sticky: %v", got)
	}
}

func TestProgressTracksPosition(t *testing.T) {
	var p Progress
	p.Event(Event{At: 10, Kind: "arrival"})
	p.Sample(Sample{At: 20, Series: "population", Value: 42})
	p.Sample(Sample{At: 20, Series: "coop", Value: 40})
	if p.Tick() != 20 || p.Records() != 3 || p.Population() != 42 {
		t.Fatalf("tick=%d records=%d pop=%d", p.Tick(), p.Records(), p.Population())
	}
}

func TestProgressTickerWritesAndStops(t *testing.T) {
	var p Progress
	p.Sample(Sample{At: 7, Series: "population", Value: 5})
	var buf syncBuffer
	stop := p.StartTicker(&buf, "test-run", 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for buf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // stop is idempotent
	out := buf.String()
	if !strings.Contains(out, "test-run: tick=7 pop=5") || !strings.Contains(out, "rss=") {
		t.Fatalf("ticker line = %q", out)
	}
}

// syncBuffer guards a bytes.Buffer against the ticker goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSpansNilSafe(t *testing.T) {
	var s *Spans
	s.Start("overlay")() // must not panic
	if s.Stats() != nil {
		t.Fatal("nil spans reported stats")
	}
	if s.Table() != "" {
		t.Fatal("nil spans rendered a table")
	}
}

func TestSpansAccumulateAndRender(t *testing.T) {
	s := NewSpans()
	end := s.Start("lending-fanout")
	time.Sleep(time.Millisecond)
	end()
	s.Start("sampling")()
	stats := s.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %v", stats)
	}
	if stats[0].Name != "lending-fanout" || stats[0].Count != 1 || stats[0].Total <= 0 {
		t.Fatalf("slowest span = %+v", stats[0])
	}
	table := s.Table()
	for _, want := range []string{"span", "lending-fanout", "sampling"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[uint64]string{
		512:     "512B",
		2 << 10: "2.0KiB",
		3 << 20: "3.0MiB",
		5 << 30: "5.0GiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRSSBytesNonZero(t *testing.T) {
	if RSSBytes() == 0 {
		t.Fatal("RSS reads as zero")
	}
}

func BenchmarkStreamSinkEvent(b *testing.B) {
	s := NewStreamSink(io.Discard)
	e := Event{At: 1, Kind: "arrival", Peer: "ab12cd34", Other: "ef56ab78", Detail: "cooperative"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At = int64(i)
		s.Event(e)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
}
