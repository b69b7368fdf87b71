// Package cli is the set-up replend-sim and replend-experiments share:
// the -pprof server, the -workload resolver, the local fleet behind
// -workers and the -telemetry JSONL sink. Only the two commands import
// it, which keeps net/http out of every library package and out of the
// benchmark binary.
package cli

import (
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof/ handlers ServePprof serves
	"os"

	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ServePprof binds addr and serves net/http/pprof on it for the life of
// the process. The bind happens synchronously so a bad address fails the
// run instead of logging into the void.
func ServePprof(addr string, logf func(format string, args ...any)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	logf("pprof serving on http://%s/debug/pprof/", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			logf("pprof server stopped: %v", err)
		}
	}()
	return nil
}

// LoadWorkload resolves a -workload argument: a path to a JSON workload
// spec, or the name of a built-in preset.
func LoadWorkload(nameOrPath string) (*workload.Spec, error) {
	data, err := os.ReadFile(nameOrPath)
	if os.IsNotExist(err) {
		return workload.Preset(nameOrPath)
	}
	if err != nil {
		return nil, err
	}
	spec, err := workload.LoadSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", nameOrPath, err)
	}
	return spec, nil
}

// NewFleet builds the coordinator behind -workers and -fleet-listen: n
// copies of the running binary in -worker mode, plus a TCP listener for
// remote workers when listen is set. With progress the live per-worker
// table goes to stderr.
func NewFleet(n int, listen, token string, progress bool, logf func(format string, args ...any)) (*fleet.Fleet, error) {
	cfg := fleet.Config{Workers: n, Listen: listen, Token: token, Logf: logf}
	if progress {
		cfg.Progress = os.Stderr
	}
	if n > 0 {
		spawn, err := fleet.SelfSpawn()
		if err != nil {
			return nil, err
		}
		cfg.Spawn = spawn
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	if listen != "" {
		logf("fleet accepting remote workers on %s", f.Addr())
	}
	return f, nil
}

// OpenTelemetry attaches the -telemetry JSONL stream sink to bus,
// writing to the file at path, or to stdout when path is "-". The
// returned close flushes the bus, closes the file and logs how many
// records went out; call it once the runs publishing into bus are done.
func OpenTelemetry(path string, stdout io.Writer, bus *telemetry.Bus, logf func(format string, args ...any)) (func() error, error) {
	out := stdout
	var file *os.File
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("-telemetry: %w", err)
		}
		file, out = f, f
	}
	stream := telemetry.NewStreamSink(out)
	bus.Attach(stream)
	return func() error {
		err := bus.Flush()
		if file != nil {
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("-telemetry: %w", err)
		}
		logf("telemetry: %d records streamed (peak %d retained)", stream.Written(), stream.PeakRetained())
		return nil
	}, nil
}
