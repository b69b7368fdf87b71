package fleet

// Fleet telemetry tests: heartbeat Status payloads, the worker-side
// state the beacons read, the coordinator's progress table, and the
// journal's fleet telemetry summary record.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestWorkerStateStatus(t *testing.T) {
	s := newWorkerState()
	if st := s.status(); st.Unit != -1 || st.PeakRSS == 0 {
		t.Fatalf("idle status = %+v, want unit -1 with a measured RSS", st)
	}

	p := &telemetry.Progress{}
	p.Event(telemetry.Event{At: 1000, Kind: "arrival"})
	s.begin(7, p)
	time.Sleep(5 * time.Millisecond) // a nonzero rate window
	st := s.status()
	if st.Unit != 7 || st.Tick != 1000 {
		t.Fatalf("busy status = %+v, want unit 7 at tick 1000", st)
	}
	if st.TicksPerSec <= 0 {
		t.Fatalf("tick rate %f, want > 0 after progress advanced", st.TicksPerSec)
	}

	// A second beat with no progress reports a zero rate, not garbage.
	time.Sleep(2 * time.Millisecond)
	if st := s.status(); st.TicksPerSec != 0 {
		t.Fatalf("stalled unit reports %f ticks/s, want 0", st.TicksPerSec)
	}

	s.end()
	if st := s.status(); st.Unit != -1 || st.Tick != 0 {
		t.Fatalf("post-unit status = %+v, want idle", st)
	}
}

// TestHeartbeatCarriesStatus drives the real worker loop over a pipe and
// reads its beacons: every heartbeat frame must carry a Status payload.
func TestHeartbeatCarriesStatus(t *testing.T) {
	coord, worker := pipePair()
	done := make(chan error, 1)
	go func() {
		done <- ServeWorker(worker, worker, WorkerOptions{HeartbeatInterval: 5 * time.Millisecond})
	}()
	if env, err := readFrame(coord); err != nil || env.Type != msgHello {
		t.Fatalf("first frame %v, %v; want hello", env, err)
	}
	deadline := time.After(2 * time.Second)
	for {
		frame := make(chan *envelope, 1)
		go func() {
			env, err := readFrame(coord)
			if err == nil {
				frame <- env
			}
		}()
		select {
		case env := <-frame:
			if env.Type != msgHeartbeat {
				continue
			}
			if env.Status == nil {
				t.Fatal("heartbeat without a status payload")
			}
			if env.Status.Unit != -1 || env.Status.PeakRSS == 0 {
				t.Fatalf("idle heartbeat status = %+v", env.Status)
			}
			coord.Close()
			if err := <-done; err != nil {
				t.Fatalf("worker exit: %v", err)
			}
			return
		case <-deadline:
			t.Fatal("no heartbeat within 2s")
		}
	}
}

func TestProgressTableRenders(t *testing.T) {
	f := &Fleet{cfg: Config{}.withDefaults(), workers: map[int]*workerConn{}}
	f.workers[0] = &workerConn{id: 0, local: true, ready: true, status: &Status{Unit: 3, Tick: 42000, TicksPerSec: 9000, PeakRSS: 32 << 20}}
	f.workers[1] = &workerConn{id: 1, ready: true, status: &Status{Unit: -1}}
	f.workers[2] = &workerConn{id: 2, local: true}
	b := &batch{jobs: make([]Job, 8), done: 5, began: time.Now(), workers: map[int]bool{}}

	table := f.progressTableLocked(b)
	for _, want := range []string{
		"5/8 units done",
		"worker 0 (local): unit 3 tick=42000 ticks/s=9000 rss=32.0MiB",
		"worker 1 (remote): idle",
		"worker 2 (local): joining",
	} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// TestProgressWriterReceivesTables runs a real batch with Progress set
// and checks the live table reached the writer.
func TestProgressWriterReceivesTables(t *testing.T) {
	var buf syncBuffer
	f, err := New(Config{Workers: 2, Spawn: slowPipeSpawn(20 * time.Millisecond), Logf: t.Logf, Progress: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Run(tinyJobs(t, 4)); err != nil {
		t.Fatal(err)
	}
	// Progress renders once a second; a 4-unit batch of 20ms units can
	// finish before the first render, so run a second, longer batch.
	if buf.Len() == 0 {
		if _, err := f.Run(tinyJobs(t, 80)); err != nil {
			t.Fatal(err)
		}
	}
	if out := buf.String(); !strings.Contains(out, "units done") {
		t.Fatalf("progress writer saw no table:\n%q", out)
	}
}

// slowPipeSpawn is PipeSpawn with an artificial per-unit delay so a
// batch stays alive long enough for timed observers.
func slowPipeSpawn(delay time.Duration) SpawnFunc {
	return func(int) (io.ReadWriteCloser, error) {
		coord, worker := pipePair()
		go fakeWorker(worker, func(job *Job, send func(*envelope) error) bool {
			time.Sleep(delay)
			return send(&envelope{Type: msgResult, Result: RunJob(job)}) == nil
		})
		return coord, nil
	}
}

// syncBuffer is a goroutine-safe growable write target.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
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

// TestJournalTelemetrySummary pins that a completed journaled batch ends
// with a telemetry summary record, that reopening the journal keeps it,
// and that the summary never counts as a unit result.
func TestJournalTelemetrySummary(t *testing.T) {
	jobs := tinyJobs(t, 3)
	path := filepath.Join(t.TempDir(), "batch.journal")
	j, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Workers: 2, Spawn: PipeSpawn(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunJournaled(jobs, j); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j.Close()
	sum := lastSummary(t, path)
	if sum.Units != 3 || sum.Workers == 0 || sum.ElapsedSeconds <= 0 {
		t.Fatalf("summary = %+v", sum)
	}

	// Reopen: every unit is still complete — the summary line was not
	// mistaken for a result — and it was not truncated as a torn tail.
	j2, err := OpenJournal(path, tinyJobs(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := completedUnits(j2); n != 3 {
		t.Fatalf("reopened journal has %d completed units, want 3", n)
	}
	if got := lastSummary(t, path); got != sum {
		t.Fatalf("summary after reopen = %+v, want %+v", got, sum)
	}
}

// lastSummary decodes the telemetry summary on a journal's last line.
func lastSummary(t *testing.T, path string) TelemetrySummary {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	var rec journalRecord
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Telemetry == nil {
		t.Fatalf("journal's last line is not a telemetry summary: %s", lines[len(lines)-1])
	}
	return *rec.Telemetry
}
