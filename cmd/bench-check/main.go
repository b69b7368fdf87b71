// Command bench-check is the benchmark regression gate: it compares the
// custom shape metrics emitted by a short-mode `go test -bench` run
// against the machine-readable `shape_gate` section of a committed
// BENCH_*.json trajectory file, within a tolerance band.
//
// The simulation is deterministic, so the shape metrics (final
// populations, success rates, admission counts — everything reportShape
// emits) reproduce exactly on any machine; the band only absorbs the
// limited precision of the benchmark output format. Timings (ns/op,
// B/op, allocs/op) are machine-dependent and are never gated. An
// allocation count a benchmark reports under its own unit, such as
// BenchmarkWorldNew's allocs_per_founder, repeats to a few objects
// under one Go release and is gated like a shape metric.
//
// Usage:
//
//	go test -short -run '^$' -bench . -benchtime 1x . | bench-check -bench BENCH_10.json
//	bench-check -bench BENCH_10.json -input bench.out
//
// Exit status is 0 when every gated metric is within band, 1 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchgate"
)

func main() {
	benchPath := flag.String("bench", "", "committed BENCH_*.json file holding the shape_gate section")
	input := flag.String("input", "-", "benchmark output to check ('-' = stdin)")
	flag.Parse()
	if *benchPath == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: bench-check -bench BENCH_N.json [-input bench.out]")
		os.Exit(2)
	}

	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fatal(err)
	}
	var file struct {
		ShapeGate *benchgate.Gate `json:"shape_gate"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		fatal(fmt.Errorf("%s: %w", *benchPath, err))
	}
	if file.ShapeGate == nil {
		fatal(fmt.Errorf("%s: no shape_gate section", *benchPath))
	}

	var out []byte
	if *input == "-" {
		out, err = io.ReadAll(os.Stdin)
	} else {
		out, err = os.ReadFile(*input)
	}
	if err != nil {
		fatal(err)
	}

	results := benchgate.Check(file.ShapeGate, benchgate.Parse(string(out)))
	failed := false
	for _, r := range results {
		status := "ok"
		if !r.OK {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-4s %s.%s: got %v, want %v (band ±%v)\n", status, r.Benchmark, r.Metric, r.Got, r.Want, r.Band)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "bench-check: shape metrics drifted out of band; if the change is intentional, refresh the shape_gate section of the BENCH file and say why in the PR")
		os.Exit(1)
	}
	fmt.Printf("bench-check: %d metrics within band\n", len(results))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-check:", err)
	os.Exit(1)
}
