// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator for a seed and prints every end-to-end
// metric with its unit, or, with -trace 1, every per-layer metric from a
// traced run. It drives the simulator only through public functions and
// read-only counters, times each call from outside, and checks the
// simulated outputs: a digest of every world's statistics against the
// committed reference (reference.json) and invariants on every seed.
//
// Run it through run.py, which builds it inside the checkout:
//
//	python3 perfbench/run.py --workload growth --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics
// BENCHMARK.json gates, or with -trace 1 the per-layer ones.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed reference.json
var referenceJSON []byte

// traceDir, relative to the checkout root the benchmark runs from, holds
// the spans of traced runs.
const traceDir = ".bench_build/traces"

// maxRun caps one process's measuring loop well inside the 180-second
// limit a run must meet, whatever -seconds asks for.
const maxRun = 120 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 10, "how long to keep repeating the workload's unit of work")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	recordRef := fs.String("record-reference", "", "write this run's digest into the given reference file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: parsing embedded %s: %v\n", referenceFile, err)
		return 1
	}

	r := newRunner(wl.name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	wl.run(r)
	r.checkDigest(refs)

	if *recordRef != "" && r.failed == 0 && r.digest != "" {
		if err := recordReference(*recordRef, wl.name, *seed, r.digest); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if r.tr != nil {
		path, err := r.tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
		if err != nil {
			r.fail(fmt.Errorf("writing spans: %w", err))
		} else {
			fmt.Printf("spans: %d records in %s\n", len(r.tr.spans), path)
		}
	}
	return r.report()
}

// workload is one named set of inputs and the loop that measures it.
type workload struct {
	name string
	run  func(*runner)
}

var workloads = []workload{
	{"growth", runGrowth},
	{"churn", runChurn},
	{"standing", runStanding},
	{"sweep", runSweep},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner carries one process's measurements and its failure accounting.
type runner struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	tr       *tracer // nil unless traced

	attempted, failed int
	failures          []string

	setup      []float64 // timed builds of the starting state: wall seconds
	warmed     bool      // the untimed warm-up builds are done
	tps, cpuK  []float64 // untraced reps: ticks per second, CPU ms per 1000 ticks
	allocMBK   []float64 // untraced reps: MB allocated per 1000 ticks
	allocsK    []float64 // untraced reps: heap objects allocated per 1000 ticks
	tracedCPUK []float64 // traced reps: CPU ms per 1000 ticks
	perPeer    []float64 // live heap bytes per admitted peer at the end of a rep
	ckpt, rest []float64 // checkpoint and restore wall seconds (standing)
	ckptMB     []float64 // sealed checkpoint size

	digest  string // the simulated-statistics digest every rep must reproduce
	layer   map[string][]float64
	extra   []string // human-readable notes printed before the result
	started time.Time
}

func newRunner(name string, seed uint64, budget time.Duration, traced bool) *runner {
	r := &runner{workload: name, seed: seed, budget: budget, traced: traced, layer: map[string][]float64{}, started: time.Now()}
	if traced {
		r.tr = newTracer(fmt.Sprintf("%s-%d-%d", name, seed, time.Now().UnixNano()))
	}
	return r
}

func (r *runner) fail(err error) {
	r.failed++
	r.failures = append(r.failures, err.Error())
}

// op runs one operation — a world run, a checkpoint round trip, a fleet
// unit — counting it as attempted, and as failed on an error or a panic.
func (r *runner) op(f func() error) bool {
	r.attempted++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return f()
	}()
	if err != nil {
		r.fail(err)
		return false
	}
	return true
}

// sameDigest checks a rep's digest against the previous reps': every
// rep of a run, traced or not, replays the same inputs.
func (r *runner) sameDigest(d string) error {
	if r.digest == "" {
		r.digest = d
		return nil
	}
	if d != r.digest {
		return fmt.Errorf("simulated statistics differ between reps of one seed: %s vs %s", d, r.digest)
	}
	return nil
}

func (r *runner) checkDigest(refs references) {
	if r.digest == "" {
		return
	}
	want, ok := refs[r.workload][fmt.Sprint(r.seed)]
	switch {
	case !ok:
		r.note("digest %s (no committed reference for seed %d; invariants checked)", r.digest, r.seed)
	case want != r.digest:
		r.fail(fmt.Errorf("digest %s differs from the committed reference %s for seed %d", r.digest, want, r.seed))
	default:
		r.note("digest %s matches the committed reference for seed %d", r.digest, r.seed)
	}
}

func (r *runner) note(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// addLayer records one sample of a per-layer metric.
func (r *runner) addLayer(name string, v float64) {
	r.layer[name] = append(r.layer[name], v)
}

// setupWarmups is how many untimed builds of the starting state a run
// makes before its first timed one, so lazy runtime set-up (heap growth,
// first-use initialisation) is done before timing.
const setupWarmups = 1

// timeSetups makes n timed builds of the workload's starting state for
// the setup_s median; build makes one, drops it and returns the wall time
// it took. Each build starts from a collected heap. Runs call it before
// every rep, so the samples spread over the whole run as the other
// metrics' do.
func (r *runner) timeSetups(n int, build func() (time.Duration, error)) error {
	warm := 0
	if !r.warmed {
		warm, r.warmed = setupWarmups, true
	}
	for i := 0; i < warm+n; i++ {
		runtime.GC()
		d, err := build()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if i >= warm {
			r.setup = append(r.setup, d.Seconds())
		}
	}
	runtime.GC()
	return nil
}

// reps repeats one unit of work until the time budget is spent. A
// traced run alternates untraced and traced reps, so tracing overhead is
// measured within one process; either kind runs at least once.
func (r *runner) reps(unit func(traced bool) error) {
	start := time.Now()
	for i := 0; ; i++ {
		traced := r.traced && i%2 == 1
		r.op(func() error { return unit(traced) })
		runtime.GC() // the next rep starts from a collected heap
		elapsed := time.Since(start)
		if (elapsed >= r.budget && (!r.traced || i >= 1)) || elapsed >= maxRun || r.failed > 0 {
			return
		}
	}
}

// runPhase records one rep's run phase: ticks simulated, wall and CPU
// time, and the runtime's allocation counters before and after.
func (r *runner) runPhase(ticks float64, wall, cpu time.Duration, m0, m1 memSample, traced bool) {
	kticks := ticks / 1000
	cpuK := cpu.Seconds() * 1000 / kticks
	if traced {
		r.tracedCPUK = append(r.tracedCPUK, cpuK)
		r.addMem(m0, m1)
		return
	}
	r.tps = append(r.tps, ticks/wall.Seconds())
	r.cpuK = append(r.cpuK, cpuK)
	r.allocMBK = append(r.allocMBK, (m1.allocBytes-m0.allocBytes)/(1<<20)/kticks)
	r.allocsK = append(r.allocsK, (m1.allocObjects-m0.allocObjects)/kticks)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics a -trace 0 run reports and
// BENCHMARK.json gates. Wall and CPU time per tick are measured and
// printed by every run, but not gated: on a shared host they drift by
// more than the largest bound allows (see baseline.json).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_ktick", "MB"},
	{"allocs_per_ktick", "count"},
}

func (r *runner) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":            median(r.setup),
		"peak_rss_mb":        peakRSSMB(),
		"alloc_mb_per_ktick": median(r.allocMBK),
		"allocs_per_ktick":   median(r.allocsK),
	}
}

// report prints the human-readable lines and then the result object.
func (r *runner) report() int {
	fmt.Printf("workload %s  seed %d  trace %v  operations %d  elapsed %.1fs  GOMAXPROCS %d\n",
		r.workload, r.seed, r.traced, r.attempted, time.Since(r.started).Seconds(), runtime.GOMAXPROCS(0))
	e2e := r.endToEndValues()
	for _, m := range endToEnd {
		fmt.Printf("  %-22s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	opt := func(name, unit string, xs []float64, why string) {
		if len(xs) == 0 {
			fmt.Printf("  %-22s %14s %s (%s)\n", name, "n/a", unit, why)
			return
		}
		fmt.Printf("  %-22s %14.6g %s\n", name, median(xs), unit)
	}
	opt("ticks_per_s", "ticks/s", r.tps, "no untraced rep")
	opt("cpu_ms_per_ktick", "ms", r.cpuK, "no untraced rep")
	opt("heap_bytes_per_peer", "B", r.perPeer, "no world lives in this process")
	opt("checkpoint_s", "s", r.ckpt, "no checkpoint on this workload")
	opt("restore_s", "s", r.rest, "no checkpoint on this workload")
	opt("checkpoint_mb", "MB", r.ckptMB, "no checkpoint on this workload")
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-22s %14.6g ratio (%d of %d operations)\n", "failed_frac", frac, r.failed, r.attempted)
	for _, e := range r.extra {
		fmt.Println("  " + e)
	}
	for _, f := range r.failures {
		fmt.Println("  FAILED: " + f)
	}

	out := map[string]metric{}
	if r.traced {
		r.finishLayers()
		r.printLayers()
		for _, m := range perLayer {
			out[m.name] = metric{median(r.layer[m.name]), m.unit}
		}
	} else {
		for _, m := range endToEnd {
			out[m.name] = metric{e2e[m.name], m.unit}
		}
	}
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1
		r.failed = 1
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, attempted, r.failed, out}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// finishLayers derives the run-level per-layer figures.
func (r *runner) finishLayers() {
	r.layer["sim.ticks_per_s"] = []float64{median(r.tps)}
	r.layer["sim.cpu_ms_per_ktick"] = []float64{median(r.cpuK)}
	if u, t := median(r.cpuK), median(r.tracedCPUK); u > 0 && t > 0 {
		r.layer["trace.overhead_frac"] = []float64{t/u - 1}
	}
}

// printLayers prints the traced spans' self times and every per-layer
// metric by name.
func (r *runner) printLayers() {
	ls := r.tr.layers()
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].self > ls[j].self })
	fmt.Printf("  %-24s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, l := range ls {
		fmt.Printf("  %-24s %8d %12.6f %12.6f\n", l.name, l.count, l.total.Seconds(), l.self.Seconds())
	}
	for _, m := range perLayer {
		fmt.Printf("  %-28s %16.6g %s\n", m.name, median(r.layer[m.name]), m.unit)
	}
}
