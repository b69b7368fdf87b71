package fleet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// workerState tracks what the worker is computing so the heartbeat
// goroutine can report it. The unit's position comes from a
// telemetry.Progress attached to the unit's world — write-only
// instrumentation, so the report costs the simulation nothing.
type workerState struct {
	mu       sync.Mutex
	unit     int
	progress *telemetry.Progress
	lastTick int64
	lastAt   time.Time
	peakRSS  uint64
}

func newWorkerState() *workerState { return &workerState{unit: -1} }

// begin marks a unit inflight and adopts its progress gauge.
func (s *workerState) begin(unit int, p *telemetry.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unit = unit
	s.progress = p
	s.lastTick = 0
	s.lastAt = time.Now()
}

// end marks the worker idle again.
func (s *workerState) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unit = -1
	s.progress = nil
}

// status snapshots the worker's telemetry for one heartbeat, updating
// the rate baseline and the RSS high-water mark as a side effect.
func (s *workerState) status() *Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rss := telemetry.RSSBytes(); rss > s.peakRSS {
		s.peakRSS = rss
	}
	st := &Status{Unit: s.unit, PeakRSS: s.peakRSS}
	if s.progress != nil {
		st.Tick = s.progress.Tick()
		now := time.Now()
		if dt := now.Sub(s.lastAt).Seconds(); dt > 0 && st.Tick >= s.lastTick {
			st.TicksPerSec = float64(st.Tick-s.lastTick) / dt
		}
		s.lastTick, s.lastAt = st.Tick, now
	}
	return st
}

// WorkerOptions configures a worker loop.
type WorkerOptions struct {
	// Token is presented in the hello frame. The coordinator drops
	// workers whose token does not match its own (remote TCP joins; local
	// stdio workers are spawned with the coordinator's token).
	Token string
	// HeartbeatInterval is how often the worker beacons liveness while
	// computing. 0 means the 1s default.
	HeartbeatInterval time.Duration
	// Logf, when set, receives progress chatter (never written to the
	// protocol stream; callers pass a stderr logger).
	Logf func(format string, args ...any)
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// ServeWorker runs the worker side of the protocol over the given
// transport: hello, then a job/result loop with heartbeats on a timer
// (the beacon keeps flowing while a unit computes, so a coordinator can
// tell a long unit from a dead worker). It returns nil on a clean
// shutdown frame or EOF — a vanished coordinator is the normal end of a
// local worker's life, not an error.
func ServeWorker(r io.Reader, w io.Writer, opt WorkerOptions) error {
	opt = opt.withDefaults()
	// The heartbeat goroutine and the result path share the writer.
	var writeMu sync.Mutex
	send := func(env *envelope) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		return writeFrame(w, env)
	}
	if err := send(&envelope{Type: msgHello, Hello: &hello{Proto: ProtoVersion, Token: opt.Token}}); err != nil {
		return fmt.Errorf("fleet: worker hello: %w", err)
	}
	state := newWorkerState()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(opt.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// A failed heartbeat means the coordinator is gone; the
				// main loop will see the same failure on its next write
				// or read, so the error is dropped here. The beacon
				// carries the worker's telemetry: unit, tick, tick rate
				// and peak RSS.
				_ = send(&envelope{Type: msgHeartbeat, Status: state.status()})
			}
		}
	}()
	for {
		env, err := readFrame(r)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("fleet: worker read: %w", err)
		}
		switch env.Type {
		case msgJob:
			if env.Job == nil {
				return fmt.Errorf("fleet: job frame without a job")
			}
			opt.Logf("fleet worker: unit %d (%s) started", env.Job.Unit, env.Job.Kind)
			progress := &telemetry.Progress{}
			bus := telemetry.NewBus()
			bus.Attach(progress)
			state.begin(env.Job.Unit, progress)
			res := RunJobOn(env.Job, bus)
			state.end()
			if res.Err != "" {
				opt.Logf("fleet worker: unit %d failed: %s", env.Job.Unit, res.Err)
			} else {
				opt.Logf("fleet worker: unit %d done", env.Job.Unit)
			}
			if err := send(&envelope{Type: msgResult, Result: res}); err != nil {
				return fmt.Errorf("fleet: worker result: %w", err)
			}
		case msgShutdown:
			return nil
		default:
			// Unknown coordinator frames are ignored for forward
			// compatibility within a protocol version.
		}
	}
}

// DialWorker joins a remote coordinator over TCP and serves jobs until
// the coordinator shuts the fleet down. The token must match the
// coordinator's -fleet-token.
func DialWorker(addr, token string, opt WorkerOptions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleet: joining coordinator %s: %w", addr, err)
	}
	defer conn.Close()
	opt.Token = token
	return ServeWorker(conn, conn, opt)
}
