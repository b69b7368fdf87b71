package main

// Run observability: the -telemetry and -progress flags of a single
// in-process run (-pprof and the telemetry file sink live in
// internal/cli, shared with replend-experiments). All of it is
// write-only instrumentation — attaching any of it changes no random
// draw and no result byte, which the world and CLI tests pin.

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/telemetry"
	"repro/internal/world"
)

// observe wires the observability stack to one world: the streaming
// JSONL sink, the progress ticker and the wall-clock span recorder. The
// returned finish function stops the ticker, flushes the stream and
// prints the span table to stderr; call it after the run completes.
func (s single) observe(w *world.World, label string) (finish func() error, err error) {
	if s.telemetryPath == "" && !s.progress {
		return func() error { return nil }, nil
	}
	bus := telemetry.NewBus()
	closeStream := bus.Flush
	if s.telemetryPath != "" {
		if closeStream, err = cli.OpenTelemetry(s.telemetryPath, s.stdout, bus, logf); err != nil {
			return nil, err
		}
	}
	var stopTicker func()
	if s.progress {
		p := &telemetry.Progress{}
		bus.Attach(p)
		stopTicker = p.StartTicker(os.Stderr, label, time.Second)
	}
	spans := telemetry.NewSpans()
	w.SetSpans(spans)
	w.SetTelemetry(bus)
	return func() error {
		if stopTicker != nil {
			stopTicker()
		}
		if err := closeStream(); err != nil {
			return err
		}
		if table := spans.Table(); table != "" {
			fmt.Fprint(os.Stderr, table)
		}
		return nil
	}, nil
}
