// Command replend-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	replend-experiments [-scale f] [-runs n] [-out dir] [experiment ...]
//	replend-experiments -all
//	replend-experiments -workers k [...]       # shard replicas over k processes
//	replend-experiments -workers k -progress   # with a live per-worker table
//	replend-experiments -worker                # fleet worker mode (stdio)
//	replend-experiments -telemetry run.jsonl fig1   # stream replica telemetry
//	replend-experiments -pprof localhost:6060 [...] # profile a long sweep
//
// Experiments (-list prints them): fig1 successrate fig2 fig3 fig4 fig6
// collusion baselines whitewash ablation traitor churn sessions stakes
// workload ("fig5" shares fig4's sweep and is included in its output;
// "t2" names successrate). collusion and traitor are single scripted
// runs of one world, so -runs and -workers do not change them; every
// other experiment averages -runs replicas per sweep point.
//
// At -scale 1 the full paper-scale workloads run (Figure 2 alone is 80
// half-million-tick simulations); -scale 0.1 reproduces the shapes in a
// couple of minutes. Each experiment writes <name>.txt (the comparison
// table, with the paper's expected shape quoted underneath) and <name>.csv
// (the raw series) into the output directory, and prints the tables.
//
// With -workers the replicas of every sweep point are sharded across k
// local worker processes (this binary re-exec'd in -worker mode); with
// -fleet-listen remote machines can join the sweep via
// `replend-sim -worker-connect`. Outputs are byte-identical to the
// in-process path. Tables go to stdout; progress chatter goes to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "replend-experiments:", err)
		os.Exit(1)
	}
}

// run executes one command line, writing the tables to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("replend-experiments", flag.ContinueOnError)
	var (
		scale    = fs.Float64("scale", 0.1, "workload scale (1 = full paper scale)")
		runs     = fs.Int("runs", 10, "replicas averaged per data point (paper: 10)")
		parallel = fs.Int("parallel", 0, "concurrent replicas (0 = GOMAXPROCS)")
		seed     = fs.Uint64("seed", 1, "base random seed")
		outDir   = fs.String("out", "results", "output directory for .txt and .csv files")
		all      = fs.Bool("all", false, "run every experiment")
		list     = fs.Bool("list", false, "print the runnable experiment names and exit")
		wkArg    = fs.String("workload", "", "workload spec overriding every replica's arrival generator: a JSON file or a built-in preset (diurnal, flash-crowd, heavytail-cohorts)")

		worker      = fs.Bool("worker", false, "run as a fleet worker on stdin/stdout (spawned by a coordinator)")
		workers     = fs.Int("workers", 0, "shard replicas across this many local worker processes")
		fleetListen = fs.String("fleet-listen", "", "with -workers: also accept remote workers on this host:port")
		fleetToken  = fs.String("fleet-token", "", "shared token gating remote fleet joins")

		telemPath = fs.String("telemetry", "", "stream replica trace events and metric samples as JSONL to this file (\"-\" for stdout)")
		progress  = fs.Bool("progress", false, "with -workers: render the live per-worker fleet table on stderr")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this host:port for the life of the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		if err := cli.ServePprof(*pprofAddr, logf); err != nil {
			return err
		}
	}
	if *worker {
		return fleet.ServeWorker(os.Stdin, os.Stdout, fleet.WorkerOptions{Logf: logf})
	}
	if *list {
		for _, name := range experiments.Names() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	names := fs.Args()
	if *all || len(names) == 0 {
		names = experiments.Names()
	}

	opt := experiments.Options{
		Runs:     *runs,
		Parallel: *parallel,
		Scale:    *scale,
		SeedBase: *seed,
	}
	if *wkArg != "" {
		spec, err := cli.LoadWorkload(*wkArg)
		if err != nil {
			return err
		}
		opt.Workload = spec
	}
	useFleet := *workers > 0 || *fleetListen != ""
	if *telemPath != "" && useFleet {
		return fmt.Errorf("-telemetry streams in-process replica worlds; it cannot be combined with -workers or -fleet-listen (fleet replicas run in worker processes)")
	}
	if *progress && !useFleet {
		return fmt.Errorf("-progress renders the fleet table; give it a fleet with -workers")
	}
	// Only a command line that passed every check creates the directory.
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if useFleet {
		f, err := cli.NewFleet(*workers, *fleetListen, *fleetToken, *progress, logf)
		if err != nil {
			return err
		}
		defer f.Close()
		opt.Fleet = f
	}
	if *telemPath != "" {
		bus := telemetry.NewBus()
		closeStream, err := cli.OpenTelemetry(*telemPath, stdout, bus, logf)
		if err != nil {
			return err
		}
		opt.Telemetry = bus
		defer func() {
			if cerr := closeStream(); err == nil {
				err = cerr
			}
		}()
	}
	for _, name := range names {
		start := time.Now()
		logf("=== %s (scale %g, %d runs) ===", name, *scale, *runs)
		rep, err := experiments.Run(name, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		table := rep.Table()
		fmt.Fprintln(stdout, table)
		if plot := experiments.PlotOf(rep); plot != "" {
			fmt.Fprintln(stdout, plot)
			table += "\n" + plot
		}
		logf("(%s in %v)", name, time.Since(start).Round(time.Millisecond))

		if err := os.WriteFile(filepath.Join(*outDir, rep.Name()+".txt"), []byte(table), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outDir, rep.Name()+".csv"), []byte(rep.CSV()), 0o644); err != nil {
			return err
		}
	}
	logf("results written to %s", *outDir)
	return nil
}

// logf is the progress/log channel: stderr, never stdout — stdout belongs
// to the tables (and to protocol frames in worker mode).
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "replend-experiments: "+format+"\n", args...)
}
