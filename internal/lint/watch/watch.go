// Package watch defines which packages the determinism analyzers bind.
// The simulation core must be a pure function of configuration and
// seeds; the orchestration edge (fleet, the CLIs) legitimately touches
// wall clocks for heartbeats, timeouts and progress logging. rngpurity
// and nopanic consult this split — it is the structural half of the
// allowlist policy described in docs/determinism.md (the other half is
// per-line //replend:allow directives).
package watch

import "strings"

// simSuffixes are the import-path suffixes of the deterministic
// simulation packages. internal/checkpoint is among them: its encoder
// defines checkpoint output bytes and its decoder reads untrusted files.
// internal/rng is deliberately absent: it is the sanctioned wrapper all
// stochastic behavior must flow through. internal/fleet and cmd/* are
// deliberately absent: coordinator heartbeats, worker deadlines and CLI
// progress timing are wall-clock by nature and never feed simulation
// output bytes.
var simSuffixes = []string{
	"internal/world",
	"internal/lending",
	"internal/churn",
	"internal/workload",
	"internal/scenario",
	"internal/overlay",
	"internal/rocq",
	"internal/topology",
	"internal/sim",
	"internal/arena",
	"internal/transport",
	"internal/checkpoint",
}

// SimPackage reports whether the import path names a package under the
// determinism contract.
func SimPackage(path string) bool {
	return matches(path, simSuffixes)
}

// telemetrySuffixes are the observability packages under the write-only
// telemetry contract. They are deliberately not simSuffixes: progress
// tickers and span recorders are wall-clock by nature, so rngpurity's
// time.Now ban does not bind here — but drawing randomness or importing
// simulation state would let observation feed back into output bytes,
// which telemetrypurity forbids.
var telemetrySuffixes = []string{
	"internal/telemetry",
}

// TelemetryPackage reports whether the import path names a package
// under the write-only telemetry contract.
func TelemetryPackage(path string) bool {
	return matches(path, telemetrySuffixes)
}

// matches reports whether path equals or ends in one of the suffixes.
func matches(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
