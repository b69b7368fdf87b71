package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySummary is the stdout of the tiny flag-built run below, pinned
// when the flag path printed through its own summary writer; reporting
// through scenario.Result must not move a byte of it.
const tinySummary = `reputation lending simulation — seed 3, 3000 ticks, λ=0.05, topology powerlaw
population:   164 peers (145 cooperative, 19 uncooperative, 40 founders)
arrivals:     120 cooperative, 40 uncooperative
admitted:     105 cooperative, 19 uncooperative
refused:      18 by introducer, 12 for introducer reputation, 0 no introducer, 6 pending at end
transactions: 2275 served, 725 denied
success rate: 0.8308 (decisions by cooperative respondents)
audits:       33 satisfied (stake+reward returned), 1 forfeited
protocol:     142 lends granted, 0 duplicate-introduction punishments
reputation:   mean cooperative reputation 0.7836 at end
`

func TestRunTinySimulation(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "series.csv")
	var stdout bytes.Buffer
	err := run([]string{
		"-init", "40", "-ticks", "3000", "-lambda", "0.05",
		"-wait", "100", "-seed", "3", "-csv", csv,
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != tinySummary {
		t.Fatalf("summary moved:\n--- got ---\n%s--- want ---\n%s", stdout.String(), tinySummary)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "t,coop,uncoop,coop-reputation\n") {
		t.Fatalf("csv header wrong: %q", string(data)[:50])
	}
	if strings.Count(string(data), "\n") < 2 {
		t.Fatal("csv has no data rows")
	}
}

func TestRunNoIntroductionsPolicyPath(t *testing.T) {
	err := run([]string{
		"-init", "40", "-ticks", "2000", "-lambda", "0.05",
		"-no-introductions", "-policy", "complaints-based",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-topology", "mesh"}, io.Discard); err == nil {
		t.Fatal("bad topology accepted")
	}
	if err := run([]string{"-init", "40", "-ticks", "1000", "-no-introductions", "-policy", "nope"}, io.Discard); err == nil {
		t.Fatal("bad policy accepted")
	}
	if err := run([]string{"-intro-amt", "0.9"}, io.Discard); err == nil {
		t.Fatal("intro-amt above the floor accepted")
	}

	// A run that takes its configuration from a scenario, a config file or
	// a checkpoint refuses every flag it would ignore, naming each one.
	dir := t.TempDir()
	lending := filepath.Join(dir, "lending.json")
	noIntro := filepath.Join(dir, "no-intro.json")
	os.WriteFile(lending, []byte(`{"numInit": 30, "numTrans": 200}`), 0o644)
	os.WriteFile(noIntro, []byte(`{"numInit": 30, "numTrans": 200, "requireIntroductions": false}`), 0o644)
	absent := filepath.Join(dir, "absent.ckpt")
	for _, c := range []struct {
		args  []string
		names []string
	}{
		{[]string{"-scenario", "quickstart", "-ticks", "10", "-seed", "5", "-lambda", "0.3"}, []string{"-lambda", "-seed", "-ticks"}},
		{[]string{"-scenario", "quickstart", "-topology", "random", "-no-introductions", "-mu", "0.1", "-policy", "fixed-credit"}, []string{"-topology", "-no-introductions", "-mu", "-policy"}},
		{[]string{"-config", lending, "-null-sign", "-stake-timeout", "9", "-no-introductions", "-mu", "0.1"}, []string{"-null-sign", "-stake-timeout", "-no-introductions", "-mu"}},
		{[]string{"-config", lending, "-policy", "fixed-credit"}, []string{"-policy"}},
		{[]string{"-checkpoint-in", absent, "-init", "9", "-mu", "0.1", "-policy", "fixed-credit"}, []string{"-init", "-mu", "-policy"}},
		// -checkpoint-at without -checkpoint-out, and -runs outside a
		// scenario, change nothing either.
		{[]string{"-init", "20", "-ticks", "100", "-checkpoint-at", "50"}, []string{"-checkpoint-at"}},
		{[]string{"-scenario", "quickstart", "-checkpoint-at", "50"}, []string{"-checkpoint-at"}},
		{[]string{"-checkpoint-in", absent, "-checkpoint-at", "50"}, []string{"-checkpoint-at"}},
		{[]string{"-init", "20", "-ticks", "100", "-runs", "3"}, []string{"-runs"}},
		{[]string{"-checkpoint-in", absent, "-runs", "5"}, []string{"-runs"}},
		{[]string{"-config", lending, "-runs", "3"}, []string{"-runs"}},
	} {
		err := run(c.args, io.Discard)
		for _, name := range c.names {
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("run(%q) = %v, want an error naming %s", c.args, err, name)
			}
		}
	}
	if err := run([]string{"-config", noIntro, "-policy", "fixed-credit"}, io.Discard); err != nil {
		t.Errorf("-policy with a config that disables introductions: %v", err)
	}
}

// TestRunRejectsStrayArguments: a positional argument the flag parser
// stops at (a misspelt subcommand, or a word in the middle of the flags)
// must fail the run and name the argument, not silently start the
// default run or drop every flag after it.
func TestRunRejectsStrayArguments(t *testing.T) {
	for _, c := range []struct {
		args []string
		name string
	}{
		{[]string{"scenario", "list"}, "scenario"},
		{[]string{"-init", "10", "-ticks", "20", "stray", "-ticks", "999999"}, "stray"},
	} {
		err := run(c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), `"`+c.name+`"`) {
			t.Errorf("run(%q) = %v, want an error naming %q", c.args, err, c.name)
		}
	}
}

func TestRunConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	cfg := `{"numInit": 30, "numTrans": 2000, "lambda": 0.05, "waitPeriod": 100, "seed": 9}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", filepath.Join(t.TempDir(), "absent.json")}, io.Discard); err == nil {
		t.Fatal("missing config accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"numSM": 0}`), 0o644)
	if err := run([]string{"-config", bad}, io.Discard); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestScenariosSubcommand(t *testing.T) {
	capture := func(args ...string) string {
		var buf bytes.Buffer
		if err := scenariosCmd(args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	list := capture("list")
	for _, name := range []string{"quickstart", "churn", "collusion", "filesharing", "api"} {
		if !strings.Contains(list, name) {
			t.Errorf("list output missing %q:\n%s", name, list)
		}
	}

	desc := capture("describe", "collusion")
	if !strings.Contains(desc, "phases:") || !strings.Contains(desc, "mole") {
		t.Errorf("describe output: %s", desc)
	}

	dump := capture("dump", "quickstart")
	if !strings.Contains(dump, `"name": "quickstart"`) {
		t.Errorf("dump output: %s", dump)
	}

	for _, bad := range [][]string{{}, {"bogus"}, {"describe"}, {"describe", "nope"}, {"dump", "nope"}} {
		if err := scenariosCmd(bad, os.Stdout); err == nil {
			t.Errorf("scenariosCmd(%v) accepted", bad)
		}
	}
}

func TestRunScenarioFromFileAndBuiltin(t *testing.T) {
	// A dumped built-in must load and run from a file, writing the CSV.
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	var dump bytes.Buffer
	if err := scenariosCmd([]string{"dump", "quickstart"}, &dump); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spec, dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "series.csv")
	if err := run([]string{"-scenario", spec, "-csv", csv}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "t,coop,uncoop,coop-reputation\n") {
		t.Fatalf("csv header wrong: %q", string(data)[:50])
	}

	if err := run([]string{"-scenario", "nope"}, io.Discard); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run([]string{"-scenario", spec, "-config", spec}, io.Discard); err == nil {
		t.Fatal("-scenario with -config accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"name": "x", "base": {"numSM": 0}}`), 0o644)
	if err := run([]string{"-scenario", bad}, io.Discard); err == nil {
		t.Fatal("invalid scenario file accepted")
	}
}

func TestRunScenarioReplicasFlag(t *testing.T) {
	// Multi-replica aggregation over a small file-defined scenario.
	dir := t.TempDir()
	spec := filepath.Join(dir, "tiny.json")
	body := `{"name": "tiny", "base": {"numInit": 30, "numTrans": 2000, "lambda": 0.05, "waitPeriod": 100, "seed": 8}}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", spec, "-runs", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// buildSim compiles the real binary once per test run; the process-fleet
// tests exercise actual worker subprocesses, not in-process stand-ins.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "replend-sim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building replend-sim: %v\n%s", err, out)
	}
	return bin
}

// TestProcessFleetByteIdenticalCLI is the end-to-end golden: the same
// scenario replica sweep through 3 real worker processes must print the
// byte-identical stdout of the in-process run, with stdout free of any
// progress chatter.
func TestProcessFleetByteIdenticalCLI(t *testing.T) {
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
	fleet, stderr := runCLI("-scenario", "sm-wipeout", "-runs", "3", "-workers", "3")
	if inproc != fleet {
		t.Fatalf("process-fleet stdout differs from in-process stdout:\n--- in-process ---\n%s\n--- fleet ---\n%s", inproc, fleet)
	}
	if !strings.Contains(stderr, "worker") {
		t.Fatalf("fleet run logged no worker chatter on stderr:\n%s", stderr)
	}
}

// TestWorkerModeSpeaksProtocolOnStdout pins the worker contract: stdout
// carries nothing but protocol frames (first a hello), chatter goes to
// stderr.
func TestWorkerModeSpeaksProtocolOnStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bin := buildSim(t)
	cmd := exec.Command(bin, "-worker")
	cmd.Stdin = strings.NewReader("") // immediate EOF: clean worker exit
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		t.Fatalf("worker mode exited with error: %v", err)
	}
	out := stdout.Bytes()
	if len(out) < 4 {
		t.Fatalf("worker wrote no hello frame, got %d bytes", len(out))
	}
	n := int(out[0])<<24 | int(out[1])<<16 | int(out[2])<<8 | int(out[3])
	if len(out) != 4+n {
		t.Fatalf("stdout is not exactly one length-prefixed frame: %d bytes, frame claims %d", len(out), n)
	}
	if !bytes.Contains(out[4:], []byte(`"hello"`)) {
		t.Fatalf("first frame is not a hello: %s", out[4:])
	}
}

// TestWorkersFlagValidation rejects fleet flags without shardable work.
func TestWorkersFlagValidation(t *testing.T) {
	if err := run([]string{"-workers", "2", "-ticks", "2000"}, io.Discard); err == nil {
		t.Fatal("-workers without -scenario accepted")
	}
	if err := run([]string{"-scenario", "sm-wipeout", "-workers", "2"}, io.Discard); err == nil {
		t.Fatal("-workers with a single run accepted")
	}
}

// TestCheckpointRoundTripWorldCLI: a flag-built run checkpointed at a
// mid tick and resumed must print the byte-identical summary and emit the
// byte-identical CSV series of the uninterrupted run.
func TestCheckpointRoundTripWorldCLI(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"-init", "40", "-ticks", "3000", "-lambda", "0.05", "-wait", "100", "-seed", "3"}
	ref := filepath.Join(dir, "ref.csv")
	var refOut bytes.Buffer
	if err := run(append(append([]string{}, flags...), "-csv", ref), &refOut); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "world.ckpt")
	if err := run(append(append([]string{}, flags...), "-checkpoint-at", "1500", "-checkpoint-out", ckpt), io.Discard); err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(dir, "resumed.csv")
	var resumedOut bytes.Buffer
	if err := run([]string{"-checkpoint-in", ckpt, "-csv", resumed}, &resumedOut); err != nil {
		t.Fatal(err)
	}
	if refOut.String() != resumedOut.String() {
		t.Fatalf("resumed run's summary differs from the uninterrupted run's:\n--- uninterrupted ---\n%s--- resumed ---\n%s", refOut.String(), resumedOut.String())
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed run's CSV differs from the uninterrupted run's")
	}
}

// TestCheckpointRoundTripScenarioCLI does the same through the scenario
// path, and exercises `checkpoint info` on the sealed file.
func TestCheckpointRoundTripScenarioCLI(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.csv")
	if err := run([]string{"-scenario", "quickstart", "-csv", ref}, io.Discard); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "run.ckpt")
	if err := run([]string{"-scenario", "quickstart", "-checkpoint-at", "11000", "-checkpoint-out", ckpt}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var info bytes.Buffer
	if err := checkpointCmd([]string{"info", ckpt}, &info); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kind:     scenario", "scenario: quickstart", "seed:", "crashed:  0 live peers", "pending (", "transaction 1"} {
		if !strings.Contains(info.String(), want) {
			t.Fatalf("checkpoint info output missing %q:\n%s", want, info.String())
		}
	}
	resumed := filepath.Join(dir, "resumed.csv")
	if err := run([]string{"-checkpoint-in", ckpt, "-csv", resumed}, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed scenario's CSV differs from the uninterrupted run's")
	}
}

// TestCheckpointFlagValidation pins the flag interlocks.
func TestCheckpointFlagValidation(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "x.ckpt")
	if err := run([]string{"-checkpoint-out", ckpt}, io.Discard); err == nil {
		t.Fatal("-checkpoint-out without -checkpoint-at accepted")
	}
	if err := run([]string{"-scenario", "quickstart", "-checkpoint-at", "999999", "-checkpoint-out", ckpt}, io.Discard); err == nil {
		t.Fatal("-checkpoint-at past the end of the run accepted")
	}
	if err := run([]string{"-checkpoint-in", ckpt, "-scenario", "quickstart"}, io.Discard); err == nil {
		t.Fatal("-checkpoint-in with -scenario accepted")
	}
	if err := run([]string{"-checkpoint-in", filepath.Join(dir, "absent.ckpt")}, io.Discard); err == nil {
		t.Fatal("missing checkpoint file accepted")
	}
	if err := run([]string{"-fleet-journal", filepath.Join(dir, "j"), "-ticks", "2000"}, io.Discard); err == nil {
		t.Fatal("-fleet-journal without a fleet accepted")
	}
	if err := checkpointCmd([]string{"bogus"}, os.Stdout); err == nil {
		t.Fatal("unknown checkpoint subcommand accepted")
	}
	garbage := filepath.Join(dir, "garbage.ckpt")
	os.WriteFile(garbage, []byte("not a checkpoint"), 0o644)
	if err := checkpointCmd([]string{"info", garbage}, os.Stdout); err == nil {
		t.Fatal("garbage checkpoint file accepted by info")
	}
	if err := run([]string{"-checkpoint-in", garbage}, io.Discard); err == nil {
		t.Fatal("garbage checkpoint file accepted by -checkpoint-in")
	}
}

// TestProcessFleetJournalResume is the coordinator crash-restart golden:
// a journaled coordinator killed mid-batch, restarted with the same
// journal, must print the byte-identical table of an uninterrupted run
// and must not re-dispatch any unit the journal already records.
func TestProcessFleetJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bin := buildSim(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "batch.journal")
	args := []string{"-scenario", "stake-churn", "-runs", "6", "-workers", "1", "-fleet-journal", journal}

	// Uninterrupted reference (its own journal path, same batch shape).
	var refOut, refErr bytes.Buffer
	ref := exec.Command(bin, "-scenario", "stake-churn", "-runs", "6", "-workers", "1",
		"-fleet-journal", filepath.Join(dir, "ref.journal"))
	ref.Stdout, ref.Stderr = &refOut, &refErr
	if err := ref.Run(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, refErr.String())
	}

	// Start the journaled coordinator and kill it once the journal
	// records some, but not all, completed units.
	first := exec.Command(bin, args...)
	var firstErr bytes.Buffer
	first.Stderr = &firstErr
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			first.Process.Kill()
			t.Fatalf("journal never accumulated completed units:\n%s", firstErr.String())
		}
		data, _ := os.ReadFile(journal)
		if n := bytes.Count(data, []byte("\n")); n >= 3 { // header + >=2 records
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.Wait()

	// Which units did the first coordinator durably complete?
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	completed := map[string]bool{}
	for i, line := range bytes.Split(data, []byte("\n")) {
		if i == 0 || len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Result *struct {
				Unit int `json:"unit"`
			} `json:"result"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.Result != nil {
			completed[fmt.Sprintf("unit %d ", rec.Result.Unit)] = true
		}
	}
	if len(completed) == 0 || len(completed) >= 6 {
		t.Fatalf("kill landed outside mid-batch: %d units completed", len(completed))
	}

	// Restart with the same journal: only incomplete units may reach a
	// worker, and the merged output must match the uninterrupted run.
	var out, stderr bytes.Buffer
	second := exec.Command(bin, args...)
	second.Stdout, second.Stderr = &out, &stderr
	if err := second.Run(); err != nil {
		t.Fatalf("restarted coordinator: %v\n%s", err, stderr.String())
	}
	if out.String() != refOut.String() {
		t.Fatalf("restarted coordinator's stdout differs from the uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", refOut.String(), out.String())
	}
	for marker := range completed {
		if strings.Contains(stderr.String(), marker+"(scenario) started") {
			t.Fatalf("restarted coordinator re-dispatched a completed unit (%q):\n%s", marker, stderr.String())
		}
	}
	if !strings.Contains(stderr.String(), "(scenario) started") {
		t.Fatalf("restarted coordinator dispatched nothing — the kill landed after the batch finished?\n%s", stderr.String())
	}
}
