package fleet

import (
	"io"
	"sync"
	"time"
)

// duplexConn glues two unidirectional pipes into one transport end.
type duplexConn struct {
	io.Reader
	io.Writer
	once  sync.Once
	close func()
}

func (d *duplexConn) Close() error {
	d.once.Do(d.close)
	return nil
}

// pipePair builds an in-memory coordinator⇄worker transport pair.
func pipePair() (coord io.ReadWriteCloser, worker io.ReadWriteCloser) {
	jobR, jobW := io.Pipe()
	resR, resW := io.Pipe()
	coord = &duplexConn{Reader: resR, Writer: jobW, close: func() {
		jobW.Close()
		resR.Close()
	}}
	worker = &duplexConn{Reader: jobR, Writer: resW, close: func() {
		resW.Close()
		jobR.Close()
	}}
	return coord, worker
}

// PipeSpawn returns a SpawnFunc whose workers are in-process goroutines
// speaking the full wire protocol over in-memory pipes — everything but
// the process isolation. The equivalence tests use it to drive the real
// coordinator/worker path without build-and-exec cost; production fleets
// use SelfSpawn (separate processes) or TCP joins.
func PipeSpawn() SpawnFunc {
	return func(int) (io.ReadWriteCloser, error) {
		coord, worker := pipePair()
		go func() {
			_ = ServeWorker(worker, worker, WorkerOptions{HeartbeatInterval: 50 * time.Millisecond})
			worker.Close()
		}()
		return coord, nil
	}
}
