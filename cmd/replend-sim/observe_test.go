package main

// CLI-level pins for the observability contract: a run with -telemetry
// and -progress attached produces byte-identical results to a bare run —
// on the flag path, the scenario path, across a checkpoint resume, and
// through a real process fleet.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// readFile is a fatal-on-error os.ReadFile for the byte-identity tests.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkJSONL asserts the telemetry file is non-empty JSONL where every
// line is a tagged event or sample record.
func checkJSONL(t *testing.T, path string) {
	t.Helper()
	data := readFile(t, path)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("telemetry file %s is empty", path)
	}
	for i, line := range lines {
		var rec struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("telemetry line %d is not JSON: %v\n%s", i+1, err, line)
		}
		if rec.T != "event" && rec.T != "sample" {
			t.Fatalf("telemetry line %d has tag %q, want event or sample", i+1, rec.T)
		}
	}
}

// TestTelemetryByteIdenticalFlagRun: the same flag-built run with the
// full observability stack attached must write the byte-identical CSV.
func TestTelemetryByteIdenticalFlagRun(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-init", "40", "-ticks", "3000", "-lambda", "0.05", "-wait", "100", "-seed", "3"}
	ref := filepath.Join(dir, "ref.csv")
	if err := run(append(append([]string{}, flags...), "-csv", ref), io.Discard); err != nil {
		t.Fatal(err)
	}
	got := filepath.Join(dir, "got.csv")
	telem := filepath.Join(dir, "run.jsonl")
	if err := run(append(append([]string{}, flags...), "-csv", got, "-telemetry", telem, "-progress"), io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, ref), readFile(t, got)) {
		t.Fatal("instrumented run's CSV differs from the bare run's")
	}
	checkJSONL(t, telem)
}

// TestTelemetryByteIdenticalScenario pins the same contract on the
// scenario path.
func TestTelemetryByteIdenticalScenario(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.csv")
	if err := run([]string{"-scenario", "quickstart", "-csv", ref}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := filepath.Join(dir, "got.csv")
	telem := filepath.Join(dir, "run.jsonl")
	if err := run([]string{"-scenario", "quickstart", "-csv", got, "-telemetry", telem, "-progress"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, ref), readFile(t, got)) {
		t.Fatal("instrumented scenario's CSV differs from the bare run's")
	}
	checkJSONL(t, telem)
}

// TestTelemetryByteIdenticalAcrossResume: instrumentation attached to a
// checkpoint resume must not disturb the resumed tail — its CSV must
// still match the uninterrupted, uninstrumented run.
func TestTelemetryByteIdenticalAcrossResume(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-init", "40", "-ticks", "3000", "-lambda", "0.05", "-wait", "100", "-seed", "3"}
	ref := filepath.Join(dir, "ref.csv")
	if err := run(append(append([]string{}, flags...), "-csv", ref), io.Discard); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "world.ckpt")
	if err := run(append(append([]string{}, flags...), "-checkpoint-at", "1500", "-checkpoint-out", ckpt), io.Discard); err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(dir, "resumed.csv")
	telem := filepath.Join(dir, "tail.jsonl")
	if err := run([]string{"-checkpoint-in", ckpt, "-csv", resumed, "-telemetry", telem, "-progress"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, ref), readFile(t, resumed)) {
		t.Fatal("instrumented resume's CSV differs from the uninterrupted bare run's")
	}
	checkJSONL(t, telem)
}

// TestObserveFlagValidation pins the observability flag interlocks.
func TestObserveFlagValidation(t *testing.T) {
	telem := filepath.Join(t.TempDir(), "t.jsonl")
	if err := run([]string{"-scenario", "quickstart", "-runs", "3", "-telemetry", telem}, io.Discard); err == nil {
		t.Fatal("-telemetry with -runs > 1 accepted")
	}
	if err := run([]string{"-scenario", "quickstart", "-runs", "3", "-workers", "2", "-telemetry", telem}, io.Discard); err == nil {
		t.Fatal("-telemetry with a fleet accepted")
	}
	if err := run([]string{"-ticks", "2000", "-checkpoint-at", "500", "-checkpoint-out",
		filepath.Join(t.TempDir(), "x.ckpt"), "-telemetry", telem}, io.Discard); err == nil {
		t.Fatal("-telemetry with -checkpoint-out accepted")
	}
	if err := run([]string{"-scenario", "quickstart", "-runs", "3", "-progress"}, io.Discard); err == nil {
		t.Fatal("-progress with multiple runs and no fleet accepted")
	}
	if err := run([]string{"-ticks", "2000", "-pprof", "not-an-address"}, io.Discard); err == nil {
		t.Fatal("unbindable -pprof address accepted")
	}
}

// TestProcessFleetProgressByteIdentical is the fleet half of the
// contract: a real process fleet run with the live -progress table on
// must print the byte-identical stdout of the bare in-process run.
func TestProcessFleetProgressByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bin := buildSim(t)
	runCLI := func(args ...string) (string, string) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%v: %v\nstderr:\n%s", args, err, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	inproc, _ := runCLI("-scenario", "sm-wipeout", "-runs", "3")
	fleet, _ := runCLI("-scenario", "sm-wipeout", "-runs", "3", "-workers", "2", "-progress")
	if inproc != fleet {
		t.Fatalf("fleet -progress stdout differs from in-process stdout:\n--- in-process ---\n%s\n--- fleet ---\n%s", inproc, fleet)
	}
}
