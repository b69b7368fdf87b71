package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/rng"
)

// tinyConfig is a sub-second work unit.
func tinyConfig(t *testing.T) json.RawMessage {
	t.Helper()
	c := config.Default()
	c.NumInit = 30
	c.NumTrans = 2_000
	c.Lambda = 0.05
	c.WaitPeriod = 100
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tinyJobs builds n config units with keyed-split seeds.
func tinyJobs(t *testing.T, n int) []Job {
	t.Helper()
	cfg := tinyConfig(t)
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Kind: KindConfig, Config: cfg, Seed: rng.DeriveSeed(77, uint64(i))}
	}
	return jobs
}

// mustJSON canonicalizes a result for byte comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &envelope{Type: msgJob, Job: &Job{Unit: 3, Kind: KindConfig, Config: json.RawMessage(`{"numInit":1}`), Seed: 9}}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != msgJob || out.Job == nil || out.Job.Unit != 3 || out.Job.Seed != 9 {
		t.Fatalf("round trip lost fields: %+v", out)
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("expected clean EOF at frame boundary, got %v", err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestFleetMatchesDirectExecution is the purity contract at the package
// level: whatever the scheduler does, the result of unit i is RunJob of
// job i, byte for byte.
func TestFleetMatchesDirectExecution(t *testing.T) {
	jobs := tinyJobs(t, 6)
	want := make([][]byte, len(jobs))
	for i := range jobs {
		j := jobs[i]
		j.Unit = i
		res := RunJob(&j)
		if res.Err != "" {
			t.Fatalf("direct unit %d: %s", i, res.Err)
		}
		want[i] = mustJSON(t, res)
	}
	f, err := New(Config{Workers: 3, Spawn: PipeSpawn(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		res.Epoch = 0 // batch bookkeeping, not payload
		if !bytes.Equal(mustJSON(t, res), want[i]) {
			t.Fatalf("unit %d differs between fleet and direct execution", i)
		}
	}
}

// TestFleetShardPermutation pins the RNG-audit requirement: a unit's
// result is a pure function of its job, so permuting the batch order,
// changing the worker count, or re-running a batch reproduces the same
// per-job results.
func TestFleetShardPermutation(t *testing.T) {
	jobs := tinyJobs(t, 5)
	perm := []int{4, 2, 0, 3, 1}

	run := func(workers int, order []int) map[uint64][]byte {
		f, err := New(Config{Workers: workers, Spawn: PipeSpawn(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		batch := make([]Job, len(order))
		for i, j := range order {
			batch[i] = jobs[j]
		}
		res, err := f.Run(batch)
		if err != nil {
			t.Fatal(err)
		}
		out := map[uint64][]byte{}
		for i, r := range res {
			r.Unit, r.Epoch = 0, 0 // scheduling metadata, not payload
			out[batch[i].Seed] = mustJSON(t, r)
		}
		return out
	}

	base := run(1, []int{0, 1, 2, 3, 4})
	for name, other := range map[string]map[uint64][]byte{
		"3 workers, permuted": run(3, perm),
		"2 workers, in order": run(2, []int{0, 1, 2, 3, 4}),
	} {
		for seed, want := range base {
			if !bytes.Equal(other[seed], want) {
				t.Fatalf("%s: seed %d result differs from the 1-worker baseline", name, seed)
			}
		}
	}
}

// fakeWorker speaks just enough protocol to die on purpose: it sends a
// hello, then hands each incoming job to behave. Returning false closes
// the transport (the worker "dies").
func fakeWorker(conn io.ReadWriteCloser, behave func(job *Job, send func(*envelope) error) bool) {
	var mu sync.Mutex
	send := func(env *envelope) error {
		mu.Lock()
		defer mu.Unlock()
		return writeFrame(conn, env)
	}
	if send(&envelope{Type: msgHello, Hello: &hello{Proto: ProtoVersion}}) != nil {
		conn.Close()
		return
	}
	for {
		env, err := readFrame(conn)
		if err != nil {
			conn.Close()
			return
		}
		if env.Type != msgJob {
			continue
		}
		if !behave(env.Job, send) {
			conn.Close()
			return
		}
	}
}

// TestWorkerDeathRequeues kills a worker mid-unit and expects the batch
// to finish correctly on the survivors.
func TestWorkerDeathRequeues(t *testing.T) {
	real := PipeSpawn()
	spawned := 0
	spawn := func(i int) (io.ReadWriteCloser, error) {
		spawned++
		if spawned == 1 {
			// The first worker accepts one job and dies without a result.
			coord, worker := pipePair()
			go fakeWorker(worker, func(*Job, func(*envelope) error) bool { return false })
			return coord, nil
		}
		return real(i)
	}
	jobs := tinyJobs(t, 4)
	want := make([][]byte, len(jobs))
	for i := range jobs {
		j := jobs[i]
		j.Unit = i
		want[i] = mustJSON(t, RunJob(&j))
	}
	f, err := New(Config{Workers: 2, Spawn: spawn, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		res.Epoch = 0 // batch bookkeeping, not payload
		if !bytes.Equal(mustJSON(t, res), want[i]) {
			t.Fatalf("unit %d differs after a worker death", i)
		}
	}
}

// TestUnitRetriesExhaust pins the failure mode: when every attempt at a
// unit dies with the worker, the batch fails instead of hanging.
func TestUnitRetriesExhaust(t *testing.T) {
	spawn := func(int) (io.ReadWriteCloser, error) {
		coord, worker := pipePair()
		go fakeWorker(worker, func(*Job, func(*envelope) error) bool { return false })
		return coord, nil
	}
	f, err := New(Config{Workers: 1, Spawn: spawn, MaxRetries: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Run(tinyJobs(t, 1)); err == nil {
		t.Fatal("batch succeeded though every worker died")
	}
}

// TestHeartbeatTimeoutReapsSilentWorker wedges a worker (it accepts a
// job, then goes silent without closing the transport — the remote-hang
// case) and expects the coordinator to reap it and finish elsewhere.
func TestHeartbeatTimeoutReapsSilentWorker(t *testing.T) {
	real := PipeSpawn()
	spawned := 0
	spawn := func(i int) (io.ReadWriteCloser, error) {
		spawned++
		if spawned == 1 {
			coord, worker := pipePair()
			go fakeWorker(worker, func(*Job, func(*envelope) error) bool {
				select {} // wedge: no result, no heartbeat, no close
			})
			return coord, nil
		}
		return real(i)
	}
	f, err := New(Config{Workers: 2, Spawn: spawn, HeartbeatTimeout: 400 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.Run(tinyJobs(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if res == nil || res.Config == nil {
			t.Fatalf("unit %d missing after silent-worker reap", i)
		}
	}
}

// TestStragglerRedispatch wedges one worker while it keeps heartbeating
// (a healthy-but-slow host) and expects the straggling unit to be
// duplicated onto an idle worker and the batch to finish.
func TestStragglerRedispatch(t *testing.T) {
	real := PipeSpawn()
	spawned := 0
	spawn := func(i int) (io.ReadWriteCloser, error) {
		spawned++
		if spawned == 1 {
			coord, worker := pipePair()
			go fakeWorker(worker, func(_ *Job, send func(*envelope) error) bool {
				for { // heartbeat forever, never finish the unit
					time.Sleep(50 * time.Millisecond)
					if send(&envelope{Type: msgHeartbeat}) != nil {
						return false
					}
				}
			})
			return coord, nil
		}
		return real(i)
	}
	f, err := New(Config{
		Workers: 2, Spawn: spawn,
		StragglerFactor: 1, StragglerMin: 100 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.Run(tinyJobs(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if res == nil || res.Config == nil {
			t.Fatalf("unit %d missing after straggler re-dispatch", i)
		}
	}
}

// TestRemoteWorkerOverTCP joins a worker through the TCP listener with a
// token and runs a batch on it alone.
func TestRemoteWorkerOverTCP(t *testing.T) {
	f, err := New(Config{Listen: "127.0.0.1:0", Token: "sesame", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan error, 1)
	go func() {
		done <- DialWorker(f.Addr(), "sesame", WorkerOptions{HeartbeatInterval: 50 * time.Millisecond})
	}()
	jobs := tinyJobs(t, 2)
	got, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if res == nil || res.Config == nil {
			t.Fatalf("unit %d missing from remote run", i)
		}
	}
	f.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestRemoteWorkerBadTokenRejected proves the join gate: a wrong token
// never becomes a schedulable worker.
func TestRemoteWorkerBadTokenRejected(t *testing.T) {
	f, err := New(Config{Listen: "127.0.0.1:0", Token: "sesame", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	go DialWorker(f.Addr(), "wrong", WorkerOptions{HeartbeatInterval: 50 * time.Millisecond})
	deadline := time.After(2 * time.Second)
	for {
		f.mu.Lock()
		ready := 0
		for _, w := range f.workers {
			if w.ready {
				ready++
			}
		}
		n := len(f.workers)
		f.mu.Unlock()
		if ready > 0 {
			t.Fatal("bad-token worker became schedulable")
		}
		if n == 0 {
			return // dropped, as it should be
		}
		select {
		case <-deadline:
			t.Fatal("bad-token worker neither dropped nor rejected")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestDeterministicUnitErrorFailsFast: an invalid payload is a
// deterministic failure and must fail the batch, not burn retries.
func TestDeterministicUnitErrorFailsFast(t *testing.T) {
	f, err := New(Config{Workers: 1, Spawn: PipeSpawn(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = f.Run([]Job{{Kind: KindConfig, Config: json.RawMessage(`{"numTrans":-4}`), Seed: 1}})
	if err == nil {
		t.Fatal("invalid unit succeeded")
	}
}

// TestRunJobUnknownKind covers the worker-side guard, including the
// retired segment kind: it must fail closed with a unit error, not panic.
func TestRunJobUnknownKind(t *testing.T) {
	for _, kind := range []string{"nonsense", "segment"} {
		res := RunJob(&Job{Unit: 7, Kind: kind})
		if want := fmt.Sprintf("unknown job kind %q", kind); res.Err != want || res.Unit != 7 {
			t.Fatalf("kind %q: got %+v, want unit 7 with error %q", kind, res, want)
		}
	}
}

// TestHelloVersionMismatchRejected: a worker speaking the previous
// protocol version is dropped at hello and never receives a job; the
// batch finishes on a current worker with RunJob's results.
func TestHelloVersionMismatchRejected(t *testing.T) {
	real := PipeSpawn()
	var gotJob atomic.Bool
	staleDone := make(chan struct{})
	spawned := 0
	spawn := func(i int) (io.ReadWriteCloser, error) {
		spawned++
		if spawned > 1 {
			return real(i)
		}
		coord, worker := pipePair()
		go func() {
			defer close(staleDone)
			defer worker.Close()
			if writeFrame(worker, &envelope{Type: msgHello, Hello: &hello{Proto: ProtoVersion - 1}}) != nil {
				return
			}
			for {
				env, err := readFrame(worker)
				if err != nil {
					return
				}
				if env.Type == msgJob {
					gotJob.Store(true)
				}
			}
		}()
		return coord, nil
	}
	jobs := tinyJobs(t, 3)
	want := make([][]byte, len(jobs))
	for i := range jobs {
		j := jobs[i]
		j.Unit = i
		want[i] = mustJSON(t, RunJob(&j))
	}
	f, err := New(Config{Workers: 2, Spawn: spawn, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // ends the stale worker's transport even if it was admitted
	<-staleDone
	if gotJob.Load() {
		t.Fatal("a worker with a stale protocol version received a job")
	}
	for i, res := range got {
		res.Epoch = 0
		if !bytes.Equal(mustJSON(t, res), want[i]) {
			t.Fatalf("unit %d differs from RunJob", i)
		}
	}
}

// TestStaleEpochResultDropped pins the cross-batch guard: a straggler
// duplicate that loses its race can deliver after its batch returned,
// and its result must not be merged into the next batch at the same
// unit index — nor may its worker's death requeue a previous batch's
// unit into the live one.
func TestStaleEpochResultDropped(t *testing.T) {
	f := &Fleet{cfg: Config{}.withDefaults(), workers: map[int]*workerConn{}}
	f.cond = sync.NewCond(&f.mu)
	b := &batch{
		epoch:    2,
		results:  make([]*Result, 1),
		inflight: map[int]int{0: 1},
		retries:  make([]int, 1),
		started:  map[int]time.Time{},
		workers:  map[int]bool{},
	}
	f.batch = b
	// A zombie worker still holding unit 0 of the previous batch (epoch 1).
	w := &workerConn{id: 0, unit: 0, unitEpoch: 1}

	f.mu.Lock()
	f.handleResultLocked(w, &Result{Unit: 0, Epoch: 1, Config: &ConfigResult{}})
	f.mu.Unlock()
	if b.results[0] != nil || b.done != 0 {
		t.Fatal("stale-epoch result was merged into the live batch")
	}
	if b.inflight[0] != 1 {
		t.Fatalf("stale-epoch result changed the live batch's inflight count: %d", b.inflight[0])
	}
	if w.unit != -1 {
		t.Fatal("worker not released after delivering its stale result")
	}

	// A zombie dying mid-hold must not requeue its old unit into the
	// live batch either.
	z := &workerConn{id: 1, unit: 0, unitEpoch: 1, conn: &duplexConn{close: func() {}}}
	f.workers[z.id] = z
	f.dropWorker(z)
	if len(b.pending) != 0 || b.retries[0] != 0 {
		t.Fatalf("zombie death leaked into the live batch: pending=%v retries=%v", b.pending, b.retries)
	}

	// The genuine current-epoch result still lands.
	cur := &workerConn{id: 2, unit: 0, unitEpoch: 2}
	f.mu.Lock()
	f.handleResultLocked(cur, &Result{Unit: 0, Epoch: 2, Config: &ConfigResult{}})
	f.mu.Unlock()
	if b.results[0] == nil || b.done != 1 || b.inflight[0] != 0 {
		t.Fatal("current-epoch result was not merged")
	}
}

func TestSortedWorkerIDsIsDeterministic(t *testing.T) {
	m := map[int]*workerConn{7: nil, 0: nil, 3: nil, 12: nil, 1: nil}
	want := []int{0, 1, 3, 7, 12}
	for i := 0; i < 20; i++ {
		got := sortedWorkerIDs(m)
		if len(got) != len(want) {
			t.Fatalf("sortedWorkerIDs = %v, want %v", got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("sortedWorkerIDs = %v, want %v", got, want)
			}
		}
	}
}

// TestCloseWaitsForReaderGoroutines pins the Close contract: the Logf
// callback must never fire after Close returns. The reader goroutines'
// death paths log (dropWorker), and callers hand in a testing.T's Logf,
// which races with test completion if a reader outlives Close.
func TestCloseWaitsForReaderGoroutines(t *testing.T) {
	var mu sync.Mutex
	closed := false
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			t.Errorf("Logf fired after Close returned: "+format, args...)
		}
	}
	f, err := New(Config{Workers: 2, Spawn: PipeSpawn(), Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(tinyJobs(t, 2)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	mu.Lock()
	closed = true
	mu.Unlock()
	// Any straggling reader would log its death path in this window.
	time.Sleep(100 * time.Millisecond)
}
