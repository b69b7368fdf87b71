package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperimentWritesOutputs(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-scale", "0.04", "-runs", "1", "-seed", "5", "-out", dir, "fig3",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	table, err := os.ReadFile(filepath.Join(dir, "fig3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(table), "Figure 3") {
		t.Fatalf("table content wrong: %s", table)
	}
	// The figure report includes its ASCII plot.
	if !strings.Contains(string(table), "naive") {
		t.Fatal("plot/axis context missing")
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "frac_naive,") {
		t.Fatalf("csv header wrong: %s", csv)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-scale", "0.04", "-runs", "1", "-out", t.TempDir(), "figX"}, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-runs", "x"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestTelemetryByteIdenticalOutputs: an experiment run with -telemetry
// attached (which also forces replicas sequential, whatever -parallel
// asks for) must write the byte-identical table and CSV and a non-empty
// stream, and two instrumented runs must write the byte-identical stream:
// replicas may not publish onto the shared bus concurrently. The scripted
// experiments stream their one world.
func TestTelemetryByteIdenticalOutputs(t *testing.T) {
	for _, name := range []string{"fig3", "collusion", "traitor"} {
		t.Run(name, func(t *testing.T) { checkTelemetryByteIdentical(t, name) })
	}
}

func checkTelemetryByteIdentical(t *testing.T, name string) {
	refDir, gotDir, againDir := t.TempDir(), t.TempDir(), t.TempDir()
	base := []string{"-scale", "0.04", "-runs", "2", "-parallel", "4", "-seed", "5"}
	if err := run(append(append([]string{}, base...), "-out", refDir, name), io.Discard); err != nil {
		t.Fatal(err)
	}
	telem := filepath.Join(gotDir, "run.jsonl")
	if err := run(append(append([]string{}, base...), "-out", gotDir, "-telemetry", telem, name), io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{name + ".txt", name + ".csv"} {
		ref, err := os.ReadFile(filepath.Join(refDir, file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("%s differs between the bare and instrumented runs", file)
		}
	}
	stream, err := os.ReadFile(telem)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) == 0 {
		t.Fatal("telemetry stream is empty")
	}
	var rec struct {
		T string `json:"t"`
	}
	first := stream[:bytes.IndexByte(stream, '\n')]
	if err := json.Unmarshal(first, &rec); err != nil || (rec.T != "event" && rec.T != "sample") {
		t.Fatalf("first telemetry line is not a tagged record: %s", first)
	}
	again := filepath.Join(againDir, "run.jsonl")
	if err := run(append(append([]string{}, base...), "-out", againDir, "-telemetry", again, name), io.Discard); err != nil {
		t.Fatal(err)
	}
	againStream, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, againStream) {
		t.Fatal("two identical instrumented runs streamed different telemetry")
	}
}

// TestObserveFlagValidation pins the observability flag interlocks.
func TestObserveFlagValidation(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results")
	telem := filepath.Join(dir, "t.jsonl")
	for _, tc := range []struct {
		args []string
		what string
	}{
		{[]string{"-workers", "2", "-telemetry", telem, "fig3"}, "-telemetry with a fleet"},
		{[]string{"-progress", "fig3"}, "-progress without a fleet"},
		{[]string{"-pprof", "not-an-address", "fig3"}, "unbindable -pprof address"},
		{[]string{"-workload", filepath.Join(dir, "missing.json"), "fig3"}, "unreadable -workload file"},
	} {
		if err := run(append([]string{"-out", out}, tc.args...), io.Discard); err == nil {
			t.Fatalf("%s accepted", tc.what)
		}
		// A rejected command line leaves nothing behind.
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("%s created the output directory (stat: %v)", tc.what, err)
		}
	}
}
