package fleet

// Journal tests: a journaled batch resumed by a fresh coordinator must
// re-dispatch only the incomplete units.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// completedUnits counts the units a journal has recorded.
func completedUnits(j *Journal) int {
	n := 0
	for _, r := range j.completed {
		if r != nil {
			n++
		}
	}
	return n
}

// recordingSpawn runs units in-process and records which unit indices
// were actually dispatched to a worker.
func recordingSpawn(mu *sync.Mutex, dispatched *[]int) SpawnFunc {
	return func(int) (io.ReadWriteCloser, error) {
		coord, worker := pipePair()
		go fakeWorker(worker, func(job *Job, send func(*envelope) error) bool {
			mu.Lock()
			*dispatched = append(*dispatched, job.Unit)
			mu.Unlock()
			return send(&envelope{Type: msgResult, Result: RunJob(job)}) == nil
		})
		return coord, nil
	}
}

// TestJournalResumeSkipsCompletedUnits is the coordinator-restart pin:
// a fresh coordinator reopening a journal that already records most of
// the batch must dispatch only the incomplete units, and the merged
// results must be byte-identical to the uninterrupted batch.
func TestJournalResumeSkipsCompletedUnits(t *testing.T) {
	jobs := tinyJobs(t, 6)
	path := filepath.Join(t.TempDir(), "batch.journal")

	// First coordinator: run the full batch under a journal.
	j1, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := New(Config{Workers: 2, Spawn: PipeSpawn(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	want, err := f1.RunJournaled(jobs, j1)
	if err != nil {
		t.Fatal(err)
	}
	f1.Close()
	j1.Close()

	// Simulate a coordinator killed after four completions: rewrite the
	// journal with only the first four record lines. Records land in
	// completion order, so the incomplete set is whatever the kept lines
	// do not mention.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 7 {
		t.Fatalf("journal has %d lines, want header + 6 records", len(lines))
	}
	if err := os.WriteFile(path, bytes.Join(lines[:5], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	kept := map[int]bool{}
	for _, line := range lines[1:5] {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Result == nil {
			t.Fatalf("journal line carries no result: %s", line)
		}
		kept[rec.Result.Unit] = true
	}
	var incomplete []int
	for i := range jobs {
		if !kept[i] {
			incomplete = append(incomplete, i)
		}
	}

	// Restarted coordinator: reload the journal and finish the batch.
	resumeJobs := tinyJobs(t, 6)
	j2, err := OpenJournal(path, resumeJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := completedUnits(j2); n != 4 {
		t.Fatalf("reloaded journal has %d completed units, want 4", n)
	}
	var mu sync.Mutex
	var dispatched []int
	f2, err := New(Config{Workers: 2, Spawn: recordingSpawn(&mu, &dispatched), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got, err := f2.RunJournaled(resumeJobs, j2)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	sort.Ints(dispatched)
	mu.Unlock()
	if !reflect.DeepEqual(dispatched, incomplete) {
		t.Fatalf("restarted coordinator dispatched units %v, want only the incomplete %v", dispatched, incomplete)
	}
	for i := range want {
		want[i].Epoch, got[i].Epoch = 0, 0
		if !bytes.Equal(mustJSON(t, want[i]), mustJSON(t, got[i])) {
			t.Fatalf("unit %d differs between journaled run and resumed run", i)
		}
	}
}

// TestJournalRejectsForeignBatch: a journal can only resume the batch
// whose signature it carries.
func TestJournalRejectsForeignBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	jobs := tinyJobs(t, 3)
	j, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := tinyJobs(t, 3)
	other[1].Seed++
	if _, err := OpenJournal(path, other); err == nil {
		t.Fatal("journal accepted a batch with a different signature")
	}
	if _, err := OpenJournal(path, tinyJobs(t, 2)); err == nil {
		t.Fatal("journal accepted a batch with a different unit count")
	}
}

// TestJournalDropsTornTail: a partial final line (coordinator died
// mid-append) is discarded, not treated as corruption.
func TestJournalDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.journal")
	jobs := tinyJobs(t, 2)
	j1, err := OpenJournal(path, jobs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Workers: 1, Spawn: PipeSpawn(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunJournaled(jobs, j1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j1.Close()

	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(`{"unit":1,"config":{"metr`); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	j2, err := OpenJournal(path, tinyJobs(t, 2))
	if err != nil {
		t.Fatalf("torn tail should be dropped, got %v", err)
	}
	defer j2.Close()
	if n := completedUnits(j2); n != 2 {
		t.Fatalf("torn-tail journal has %d completed units, want 2", n)
	}
}
