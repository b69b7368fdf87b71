package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// SpawnFunc creates the transport to one local worker (conventionally a
// child process running `<binary> -worker`, see SelfSpawn). Closing the
// returned transport must terminate the worker.
type SpawnFunc func(workerIndex int) (io.ReadWriteCloser, error)

// Config configures a Fleet.
type Config struct {
	// Workers is the number of local workers to spawn (and keep
	// respawned while work is pending). 0 is valid when Listen is set:
	// the fleet then waits for remote workers.
	Workers int
	// Spawn creates one local worker transport. Required when Workers>0.
	Spawn SpawnFunc
	// Listen, when non-empty, is a TCP address remote workers may join
	// through (`replend-sim -worker-connect <addr> -fleet-token <t>`).
	Listen string
	// Token gates remote joins; a remote hello with a different token is
	// dropped. Locally spawned workers are trusted without it.
	Token string
	// HeartbeatTimeout is how long a worker may stay silent (no result,
	// no heartbeat) before the coordinator declares it dead, kills the
	// transport and requeues its unit. 0 means the 10s default; workers
	// beacon every second.
	HeartbeatTimeout time.Duration
	// StragglerFactor re-dispatches a unit still running after
	// factor×(median completed unit time) to an idle worker; whichever
	// copy finishes first wins (identical payloads — the units are
	// deterministic). 0 means the default 4; negative disables.
	StragglerFactor float64
	// StragglerMin floors the straggler threshold so short units are not
	// duplicated on scheduling noise. 0 means the 2s default.
	StragglerMin time.Duration
	// MaxRetries is how many times one unit may be requeued after worker
	// deaths before the batch fails. 0 means the default 3.
	MaxRetries int
	// Logf, when set, receives scheduling chatter (callers pass a stderr
	// logger; never stdout, which belongs to results).
	Logf func(format string, args ...any)
	// Progress, when set, receives a live per-worker progress table
	// (unit, tick, tick rate, peak RSS from the workers' heartbeat
	// telemetry) about once a second while a batch runs. Callers pass
	// stderr; results own stdout.
	Progress io.Writer
}

func (c Config) withDefaults() Config {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.StragglerFactor == 0 {
		c.StragglerFactor = 4
	}
	if c.StragglerMin <= 0 {
		c.StragglerMin = 2 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Fleet is a coordinator plus its pool of worker connections. Workers
// survive across Run batches (an experiment sweep is many small batches),
// and local workers that die are respawned while work is pending.
type Fleet struct {
	cfg      Config
	listener net.Listener
	serving  sync.WaitGroup // accept loop + per-worker readers

	mu         sync.Mutex
	cond       *sync.Cond
	workers    map[int]*workerConn
	nextID     int
	spawnSeq   int // next index handed to Spawn (monotonic across respawns)
	spawnsLeft int // respawn budget, guards against crash-looping workers
	epoch      int64
	closed     bool
	batch      *batch // nil between Run calls

	runMu sync.Mutex // serializes Run batches
}

// workerConn is the coordinator's handle on one worker.
type workerConn struct {
	id        int
	conn      io.ReadWriteCloser
	writeMu   sync.Mutex
	local     bool
	ready     bool  // hello validated
	unit      int   // inflight unit index, -1 when idle
	unitEpoch int64 // batch epoch the inflight unit belongs to
	lastSeen  time.Time
	status    *Status // last heartbeat telemetry, nil before the first
}

// batch is the state of one Run call.
type batch struct {
	epoch     int64
	jobs      []Job
	results   []*Result
	pending   []int       // unit indices awaiting dispatch, FIFO
	inflight  map[int]int // unit -> number of workers currently on it
	retries   []int
	started   map[int]time.Time // unit -> earliest dispatch time
	durations []time.Duration   // completed unit times (straggler median)
	done      int
	err       error
	journal   *Journal // nil when the batch is not journaled
	began     time.Time
	workers   map[int]bool // worker ids that completed a unit
	peakRSS   uint64       // max heartbeat-reported RSS across workers
}

// New builds the fleet: spawns the local workers and, when configured,
// opens the TCP join listener. Close releases everything.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("fleet: negative worker count %d", cfg.Workers)
	}
	if cfg.Workers > 0 && cfg.Spawn == nil {
		return nil, fmt.Errorf("fleet: %d local workers requested without a spawn function", cfg.Workers)
	}
	if cfg.Workers == 0 && cfg.Listen == "" {
		return nil, fmt.Errorf("fleet: no local workers and no listen address — the fleet could never run anything")
	}
	f := &Fleet{
		cfg:        cfg,
		workers:    map[int]*workerConn{},
		spawnsLeft: cfg.Workers * (cfg.MaxRetries + 1),
	}
	f.cond = sync.NewCond(&f.mu)
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("fleet: listening on %s: %w", cfg.Listen, err)
		}
		f.listener = ln
		f.serving.Add(1)
		go f.acceptLoop(ln)
	}
	for i := 0; i < cfg.Workers; i++ {
		if err := f.spawnWorker(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Addr returns the remote-join listener address ("" when not listening).
func (f *Fleet) Addr() string {
	if f.listener == nil {
		return ""
	}
	return f.listener.Addr().String()
}

// spawnWorker launches one local worker and registers its connection.
// Spawn indices are monotonic across respawns, so a SpawnFunc that binds
// per-index resources (log files, ports, pinned cores) never sees a
// repeat or a sentinel.
func (f *Fleet) spawnWorker() error {
	f.mu.Lock()
	index := f.spawnSeq
	f.spawnSeq++
	f.mu.Unlock()
	conn, err := f.cfg.Spawn(index)
	if err != nil {
		return fmt.Errorf("fleet: spawning worker %d: %w", index, err)
	}
	f.addConn(conn, true)
	return nil
}

// acceptLoop admits remote workers until the listener closes.
func (f *Fleet) acceptLoop(ln net.Listener) {
	defer f.serving.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		f.addConn(conn, false)
	}
}

// addConn registers a transport and starts its reader goroutine. The
// worker becomes schedulable once its hello validates.
func (f *Fleet) addConn(conn io.ReadWriteCloser, local bool) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		conn.Close()
		return
	}
	w := &workerConn{id: f.nextID, conn: conn, local: local, unit: -1, lastSeen: time.Now()}
	f.nextID++
	f.workers[w.id] = w
	f.mu.Unlock()
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		f.serveConn(w)
	}()
}

// serveConn is the per-worker reader: it validates the hello, then turns
// frames into scheduler state changes until the transport dies.
func (f *Fleet) serveConn(w *workerConn) {
	defer f.dropWorker(w)
	// The hello must arrive promptly; a TCP client that connects and
	// stays silent would otherwise hold a slot forever.
	if nc, ok := w.conn.(net.Conn); ok {
		_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	}
	env, err := readFrame(w.conn)
	if err != nil || env.Type != msgHello || env.Hello == nil {
		f.cfg.Logf("fleet: worker %d dropped before hello", w.id)
		return
	}
	if env.Hello.Proto != ProtoVersion {
		f.cfg.Logf("fleet: worker %d speaks protocol %d, want %d — dropped", w.id, env.Hello.Proto, ProtoVersion)
		return
	}
	if !w.local && f.cfg.Token != env.Hello.Token {
		f.cfg.Logf("fleet: remote worker %d presented a bad token — dropped", w.id)
		return
	}
	if nc, ok := w.conn.(net.Conn); ok {
		_ = nc.SetReadDeadline(time.Time{})
	}
	f.mu.Lock()
	w.ready = true
	w.lastSeen = time.Now()
	f.mu.Unlock()
	f.cond.Broadcast()
	f.cfg.Logf("fleet: worker %d joined (%s)", w.id, map[bool]string{true: "local", false: "remote"}[w.local])
	for {
		env, err := readFrame(w.conn)
		if err != nil {
			return
		}
		f.mu.Lock()
		w.lastSeen = time.Now()
		if env.Status != nil {
			w.status = env.Status
			if b := f.batch; b != nil && env.Status.PeakRSS > b.peakRSS {
				b.peakRSS = env.Status.PeakRSS
			}
		}
		if env.Type == msgResult && env.Result != nil {
			f.handleResultLocked(w, env.Result)
		}
		f.mu.Unlock()
		f.cond.Broadcast()
	}
}

// handleResultLocked folds one worker result into the running batch.
func (f *Fleet) handleResultLocked(w *workerConn, res *Result) {
	unit := res.Unit
	b := f.batch
	if w.unit == unit {
		w.unit = -1
	}
	if b == nil || res.Epoch != b.epoch || unit < 0 || unit >= len(b.results) {
		return // no batch, a stale epoch's straggler, or a nonsense index
	}
	if n := b.inflight[unit]; n > 0 {
		b.inflight[unit] = n - 1
	}
	if b.results[unit] != nil {
		return // a straggler duplicate lost the race; discard
	}
	if res.Err != "" {
		// Deterministic unit failure: every retry would fail identically.
		if b.err == nil {
			b.err = fmt.Errorf("fleet: unit %d: %s", unit, res.Err)
		}
		return
	}
	if b.journal != nil {
		// The record is synced before the merge: a coordinator crash
		// after this point can never lose a completed unit.
		if err := b.journal.append(res); err != nil {
			if b.err == nil {
				b.err = err
			}
			return
		}
	}
	b.results[unit] = res
	b.done++
	b.workers[w.id] = true
	if start, ok := b.started[unit]; ok {
		b.durations = append(b.durations, time.Since(start))
	}
}

// dropWorker runs when a worker's transport dies for any reason: it
// deregisters the worker, requeues its inflight unit and, for local
// workers with work still pending, asks the run loop to respawn.
func (f *Fleet) dropWorker(w *workerConn) {
	w.conn.Close()
	f.mu.Lock()
	delete(f.workers, w.id)
	if b := f.batch; b != nil && w.unit >= 0 && w.unitEpoch == b.epoch {
		unit := w.unit
		if n := b.inflight[unit]; n > 0 {
			b.inflight[unit] = n - 1
		}
		if b.results[unit] == nil && b.inflight[unit] == 0 {
			b.retries[unit]++
			if b.retries[unit] > f.cfg.MaxRetries {
				if b.err == nil {
					b.err = fmt.Errorf("fleet: unit %d lost %d workers — giving up", unit, b.retries[unit])
				}
			} else {
				// Front of the queue: a retried unit beats fresh work.
				b.pending = append([]int{unit}, b.pending...)
				f.cfg.Logf("fleet: worker %d died, unit %d requeued (attempt %d)", w.id, unit, b.retries[unit]+1)
			}
		}
		w.unit = -1
	}
	f.mu.Unlock()
	f.cond.Broadcast()
	f.cfg.Logf("fleet: worker %d gone", w.id)
}

// sendJob writes one job to one worker; a failed write kills the
// transport and lets the reader goroutine run the death path.
func (f *Fleet) sendJob(w *workerConn, job Job) {
	w.writeMu.Lock()
	err := writeFrame(w.conn, &envelope{Type: msgJob, Job: &job})
	w.writeMu.Unlock()
	if err != nil {
		f.cfg.Logf("fleet: dispatch to worker %d failed: %v", w.id, err)
		w.conn.Close()
	}
}

// Run executes one batch: jobs[i] becomes unit i (the field is assigned
// here), and the returned slice has the result of jobs[i] at index i
// regardless of which workers ran what in which order. Retries on worker
// death, heartbeat-based failure detection and straggler re-dispatch all
// happen inside; a deterministic unit error fails the whole batch.
func (f *Fleet) Run(jobs []Job) ([]*Result, error) {
	return f.runBatch(jobs, nil)
}

// RunJournaled is Run with a crash journal: units the journal already
// records are merged without being dispatched again, and every newly
// completed unit is durably appended before it is merged. A restarted
// coordinator that reopens the same journal therefore re-executes only
// the incomplete units.
func (f *Fleet) RunJournaled(jobs []Job, journal *Journal) ([]*Result, error) {
	if journal == nil {
		return nil, errors.New("fleet: RunJournaled without a journal")
	}
	if len(journal.completed) != len(jobs) {
		return nil, fmt.Errorf("fleet: journal covers %d units, batch has %d", len(journal.completed), len(jobs))
	}
	return f.runBatch(jobs, journal)
}

func (f *Fleet) runBatch(jobs []Job, journal *Journal) ([]*Result, error) {
	f.runMu.Lock()
	defer f.runMu.Unlock()
	if len(jobs) == 0 {
		return nil, nil
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errors.New("fleet: closed")
	}
	f.epoch++
	b := &batch{
		epoch:    f.epoch,
		jobs:     jobs,
		results:  make([]*Result, len(jobs)),
		inflight: map[int]int{},
		retries:  make([]int, len(jobs)),
		started:  map[int]time.Time{},
		journal:  journal,
		began:    time.Now(),
		workers:  map[int]bool{},
	}
	for i := range jobs {
		jobs[i].Unit = i
		jobs[i].Epoch = b.epoch
		if journal != nil && journal.completed[i] != nil {
			// Completed by a previous coordinator: merge, don't dispatch.
			res := *journal.completed[i]
			res.Epoch = b.epoch
			b.results[i] = &res
			b.done++
			continue
		}
		b.pending = append(b.pending, i)
	}
	f.batch = b
	f.mu.Unlock()

	// The run loop blocks on the condition variable; this ticker wakes it
	// for heartbeat-timeout and straggler sweeps.
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	tickDone := make(chan struct{})
	defer close(tickDone)
	go func() {
		for {
			select {
			case <-tickDone:
				return
			case <-tick.C:
				f.cond.Broadcast()
			}
		}
	}()
	if f.cfg.Progress != nil {
		f.serving.Add(1)
		go f.renderProgress(b, tickDone)
	}

	f.mu.Lock()
	defer func() {
		f.batch = nil
		f.mu.Unlock()
	}()
	for {
		if b.err != nil {
			return nil, b.err
		}
		if b.done == len(jobs) {
			if b.journal != nil {
				// The summary is observability, not state: a journal
				// whose summary append failed still replays every unit.
				if err := b.journal.appendSummary(f.summaryLocked(b)); err != nil {
					f.cfg.Logf("fleet: journal telemetry summary not recorded: %v", err)
				}
			}
			out := make([]*Result, len(jobs))
			copy(out, b.results)
			return out, nil
		}
		if f.closed {
			return nil, errors.New("fleet: closed while running")
		}
		if dispatches := f.scheduleLocked(b); len(dispatches) > 0 {
			f.mu.Unlock()
			for _, d := range dispatches {
				f.sendJob(d.worker, d.job)
			}
			f.mu.Lock()
			continue
		}
		f.reapSilentLocked()
		if respawn := f.respawnWantedLocked(b); respawn > 0 {
			f.mu.Unlock()
			for i := 0; i < respawn; i++ {
				if err := f.spawnWorker(); err != nil {
					f.cfg.Logf("fleet: respawn failed: %v", err)
				}
			}
			f.mu.Lock()
			continue
		}
		if len(f.workers) == 0 && f.listener == nil && f.spawnsLeft <= 0 {
			return nil, errors.New("fleet: every worker died and the respawn budget is spent")
		}
		f.cond.Wait()
	}
}

// dispatch pairs a ready worker with a job to send.
type dispatch struct {
	worker *workerConn
	job    Job
}

// scheduleLocked assigns pending units — and, when the queue is drained,
// straggler duplicates — to idle workers, marking them busy. The frame
// writes happen outside the lock.
func (f *Fleet) scheduleLocked(b *batch) []dispatch {
	var out []dispatch
	idle := f.idleWorkersLocked()
	for len(idle) > 0 && len(b.pending) > 0 {
		unit := b.pending[0]
		b.pending = b.pending[1:]
		if b.results[unit] != nil {
			continue
		}
		w := idle[0]
		idle = idle[1:]
		w.unit = unit
		w.unitEpoch = b.epoch
		b.inflight[unit]++
		if _, ok := b.started[unit]; !ok {
			b.started[unit] = time.Now()
		}
		out = append(out, dispatch{worker: w, job: b.jobs[unit]})
	}
	if len(idle) > 0 && len(b.pending) == 0 {
		for _, unit := range f.stragglersLocked(b, len(idle)) {
			w := idle[0]
			idle = idle[1:]
			w.unit = unit
			w.unitEpoch = b.epoch
			b.inflight[unit]++
			out = append(out, dispatch{worker: w, job: b.jobs[unit]})
			f.cfg.Logf("fleet: unit %d is straggling, duplicated onto worker %d", unit, w.id)
		}
	}
	return out
}

// idleWorkersLocked lists ready workers with no inflight unit, in id
// order (determinism of the *schedule* is not required — results merge by
// unit — but a stable order keeps the logs readable).
func (f *Fleet) idleWorkersLocked() []*workerConn {
	var out []*workerConn
	for _, w := range f.workers {
		if w.ready && w.unit == -1 {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// stragglersLocked returns up to max unit indices that have been running
// longer than the straggler threshold and are not already duplicated.
func (f *Fleet) stragglersLocked(b *batch, max int) []int {
	if f.cfg.StragglerFactor < 0 || len(b.durations) == 0 {
		return nil
	}
	med := append([]time.Duration(nil), b.durations...)
	sort.Slice(med, func(i, j int) bool { return med[i] < med[j] })
	threshold := time.Duration(f.cfg.StragglerFactor * float64(med[len(med)/2]))
	if threshold < f.cfg.StragglerMin {
		threshold = f.cfg.StragglerMin
	}
	var out []int
	for unit, n := range b.inflight {
		if len(out) == max {
			break
		}
		if n != 1 || b.results[unit] != nil {
			continue
		}
		if time.Since(b.started[unit]) > threshold {
			out = append(out, unit)
		}
	}
	sort.Ints(out)
	return out
}

// reapSilentLocked kills workers whose heartbeat stopped; the transport
// close surfaces as a read error in serveConn, which requeues their work.
// Workers that never sent their hello are covered too — a wedged spawn
// (stuck init, never flushes stdout) is not a net.Conn, so the TCP hello
// deadline cannot reach it, and without the reap it would sit in the
// pool forever blocking both respawn and the all-workers-dead exit.
func (f *Fleet) reapSilentLocked() {
	for _, w := range f.workers {
		if time.Since(w.lastSeen) > f.cfg.HeartbeatTimeout {
			f.cfg.Logf("fleet: worker %d silent for %v — killed", w.id, time.Since(w.lastSeen).Round(time.Millisecond))
			w.conn.Close()
		}
	}
}

// respawnWantedLocked says how many local workers to spawn right now:
// enough to restore the configured pool while units are unassigned and
// the respawn budget lasts.
func (f *Fleet) respawnWantedLocked(b *batch) int {
	if f.cfg.Workers == 0 || len(b.pending) == 0 {
		return 0
	}
	locals := 0
	for _, w := range f.workers {
		if w.local {
			locals++
		}
	}
	want := f.cfg.Workers - locals
	if want > f.spawnsLeft {
		want = f.spawnsLeft
	}
	if want < 0 {
		return 0
	}
	f.spawnsLeft -= want
	return want
}

// renderProgress writes the live per-worker progress table to
// cfg.Progress about once a second until the batch's done channel
// closes. The table is assembled under the fleet lock from heartbeat
// telemetry and written outside it.
func (f *Fleet) renderProgress(b *batch, done <-chan struct{}) {
	defer f.serving.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			f.mu.Lock()
			table := f.progressTableLocked(b)
			f.mu.Unlock()
			fmt.Fprint(f.cfg.Progress, table)
		}
	}
}

// progressTableLocked renders the batch position plus one line per
// connected worker from its last heartbeat telemetry.
func (f *Fleet) progressTableLocked(b *batch) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet: %d/%d units done, %s elapsed\n", b.done, len(b.jobs), time.Since(b.began).Round(time.Second))
	for _, wid := range sortedWorkerIDs(f.workers) {
		w := f.workers[wid]
		kind := "remote"
		if w.local {
			kind = "local"
		}
		st := w.status
		switch {
		case !w.ready:
			fmt.Fprintf(&sb, "  worker %d (%s): joining\n", w.id, kind)
		case st == nil || st.Unit < 0:
			fmt.Fprintf(&sb, "  worker %d (%s): idle\n", w.id, kind)
		default:
			fmt.Fprintf(&sb, "  worker %d (%s): unit %d tick=%d ticks/s=%.0f rss=%s\n",
				w.id, kind, st.Unit, st.Tick, st.TicksPerSec, telemetry.FormatBytes(st.PeakRSS))
		}
	}
	return sb.String()
}

// summaryLocked folds the batch's telemetry into the journal's summary
// record: what ran, on how many workers, how long, and the fleet's
// resident-set high-water mark.
func (f *Fleet) summaryLocked(b *batch) *TelemetrySummary {
	return &TelemetrySummary{
		Units:          len(b.jobs),
		Workers:        len(b.workers),
		ElapsedSeconds: time.Since(b.began).Seconds(),
		PeakRSS:        b.peakRSS,
	}
}

// Close shuts the fleet down: remote listeners stop accepting and every
// worker transport closes, which workers read as EOF — the shutdown
// signal. Idle workers (blocked reading for their next job) additionally
// get an explicit shutdown frame first; a busy or wedged worker gets none,
// because a frame write to a worker that is not reading can block forever.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	type closing struct {
		w    *workerConn
		idle bool
	}
	// Walk the worker table in id order so shutdown frames, socket
	// closes and the resulting log lines land deterministically (the
	// map walk appended workers process-randomly).
	workers := make([]closing, 0, len(f.workers))
	for _, wid := range sortedWorkerIDs(f.workers) {
		w := f.workers[wid]
		workers = append(workers, closing{w: w, idle: w.ready && w.unit == -1})
	}
	f.mu.Unlock()
	f.cond.Broadcast()
	if f.listener != nil {
		f.listener.Close()
	}
	for _, c := range workers {
		if c.idle {
			c.w.writeMu.Lock()
			_ = writeFrame(c.w.conn, &envelope{Type: msgShutdown})
			c.w.writeMu.Unlock()
		}
		c.w.conn.Close()
	}
	// Wait for the accept loop and every reader goroutine to finish:
	// their death paths call cfg.Logf, and the callback must never fire
	// after Close returns (a testing.T's Logf, for one, races with test
	// completion).
	f.serving.Wait()
}

// sortedWorkerIDs returns the worker-table keys in ascending id order.
func sortedWorkerIDs(m map[int]*workerConn) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ---------------------------------------------------------------------------
// Local worker spawning.

// SelfSpawn returns a SpawnFunc that launches the running binary in
// -worker mode (both replend-sim and replend-experiments expose it) and
// speaks the protocol over the child's stdin/stdout; the child's stderr
// passes through to this process's stderr. It is the standard local
// fleet layout.
func SelfSpawn() (SpawnFunc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fleet: resolving own binary: %w", err)
	}
	return func(int) (io.ReadWriteCloser, error) { return startProc([]string{exe, "-worker"}) }, nil
}
