// Command replend-sim runs a single reputation-lending community
// simulation and prints a summary plus optional CSV time series.
//
// Usage:
//
//	replend-sim [flags]
//	replend-sim -scenario file.json [-runs n] [-csv out.csv]
//	replend-sim -scenario name -runs n -workers k   # local fleet
//	replend-sim -worker                             # fleet worker (stdio)
//	replend-sim -worker-connect host:port -fleet-token t
//	replend-sim scenarios list
//	replend-sim scenarios describe <name>
//	replend-sim scenarios dump <name>
//	replend-sim checkpoint info <file>
//
// The defaults are the paper's Table 1 values. Examples:
//
//	replend-sim -lambda 0.1 -ticks 50000            # Figure 1 conditions
//	replend-sim -no-introductions -policy mid-spectrum
//	replend-sim -config experiment.json -csv out.csv
//	replend-sim -scenario collusion                 # built-in by name
//	replend-sim -scenario my-workload.json -runs 10 # averaged replicas
//	replend-sim -scenario churn-steady -runs 10 -workers 4
//	replend-sim -scenario churn-steady -checkpoint-at 5000 -checkpoint-out s.ckpt
//	replend-sim -checkpoint-in s.ckpt               # resume to completion
//	replend-sim -workload diurnal -ticks 60000      # nonstationary arrivals
//	replend-sim -workload diurnal -ticks 60000 -record t.jsonl
//	replend-sim -replay t.jsonl -ticks 60000        # byte-identical re-drive
//	replend-sim -scenario churn-steady -runs 10 -workers 4 -fleet-journal b.journal
//	replend-sim -telemetry run.jsonl -progress      # stream events, live ticker
//	replend-sim -scenario churn-steady -runs 10 -workers 4 -progress
//	replend-sim -pprof localhost:6060 -ticks 500000 # CPU/heap profiles live
//
// Results go to stdout; progress and log chatter go to stderr, so stdout
// stays machine-parseable (and, in -worker mode, carries nothing but
// protocol frames). See docs/fleet.md for the distributed runner.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/baseline"
	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/internal/world"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "replend-sim:", err)
		os.Exit(1)
	}
}

// run executes one command line, writing results to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "scenarios" {
		return scenariosCmd(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "checkpoint" {
		return checkpointCmd(args[1:], stdout)
	}
	fs := flag.NewFlagSet("replend-sim", flag.ContinueOnError)
	// The configuration flags write straight into the Table 1 defaults.
	cfg := config.Default()
	fs.IntVar(&cfg.NumInit, "init", cfg.NumInit, "initial cooperative peers")
	fs.Int64Var(&cfg.NumTrans, "ticks", cfg.NumTrans, "transactions (= simulation time units)")
	fs.Float64Var(&cfg.Lambda, "lambda", cfg.Lambda, "new-peer Poisson arrival rate per tick")
	fs.Float64Var(&cfg.FracUncoop, "frac-uncoop", cfg.FracUncoop, "fraction of arrivals that are uncooperative")
	fs.Float64Var(&cfg.FracNaive, "frac-naive", cfg.FracNaive, "fraction of cooperative peers that are naive introducers")
	fs.Float64Var(&cfg.ErrSel, "err-sel", cfg.ErrSel, "selective introducer error rate")
	fs.Func("topology", "topology: random or powerlaw (default "+string(cfg.Topology)+")", func(s string) (err error) {
		cfg.Topology, err = topology.ParseKind(s)
		return err
	})
	fs.Int64Var(&cfg.WaitPeriod, "wait", cfg.WaitPeriod, "introduction waiting period T")
	fs.IntVar(&cfg.AuditTrans, "audit-trans", cfg.AuditTrans, "completed transactions before the newcomer audit")
	fs.Float64Var(&cfg.IntroAmt, "intro-amt", cfg.IntroAmt, "reputation lent per introduction")
	fs.Float64Var(&cfg.Reward, "reward", cfg.Reward, "reward for introducing a cooperative peer")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.BoolVar(&cfg.NullSign, "null-sign", cfg.NullSign, "replace Ed25519 signing with cheap null identities (fidelity opt-out for huge sweeps)")
	fs.Int64Var(&cfg.StakeTimeout, "stake-timeout", cfg.StakeTimeout, "audit deadline in ticks for admission stakes: pending stakes are refunded to survivors (or stranded), offline peers' stake records expire under the same TTL; 0 disables")
	// The flags above write cfg; a run that takes its configuration from
	// a file ignores them, and with them the flag-built world's switches.
	var ignoredByFile []string
	fs.VisitAll(func(f *flag.Flag) { ignoredByFile = append(ignoredByFile, f.Name) })
	ignoredByFile = append(ignoredByFile, "no-introductions", "mu")
	var (
		configPath = fs.String("config", "", "JSON configuration file (fields default to Table 1)")
		scenPath   = fs.String("scenario", "", "scenario file (or built-in name) to execute instead of a flag-built config")
		runs       = fs.Int("runs", 1, "with -scenario: seed-offset replicas to run and aggregate")
		noIntro    = fs.Bool("no-introductions", false, "open admission instead of reputation lending")
		mu         = fs.Float64("mu", 0, "membership departure rate per tick (0 = the paper's model, no departures)")
		policyName = fs.String("policy", "mid-spectrum", "bootstrap policy with -no-introductions: complaints-based, positive-only, mid-spectrum, fixed-credit")
		csvPath    = fs.String("csv", "", "write population/reputation time series as CSV to this file")
		wkArg      = fs.String("workload", "", "workload spec overriding the config's: a JSON file or a built-in preset (diurnal, flash-crowd, heavytail-cohorts)")
		recPath    = fs.String("record", "", "write the run's workload trace (arrivals, departures, rejoins) to this JSONL file for later -replay; single in-process run only")
		repPath    = fs.String("replay", "", "re-drive arrivals from a recorded trace file instead of a generator")

		worker      = fs.Bool("worker", false, "run as a fleet worker on stdin/stdout (spawned by a coordinator; stdout carries only protocol frames)")
		workerConn  = fs.String("worker-connect", "", "join a remote fleet coordinator at this host:port as a worker")
		fleetToken  = fs.String("fleet-token", "", "shared token gating remote fleet joins (both sides)")
		workers     = fs.Int("workers", 0, "with -scenario and -runs: shard replicas across this many local worker processes")
		fleetListen = fs.String("fleet-listen", "", "with -workers: also accept remote workers on this host:port")
		journal     = fs.String("fleet-journal", "", "with -workers: coordinator crash journal; a restarted coordinator reopening the same path re-dispatches only incomplete replicas")

		ckptOut = fs.String("checkpoint-out", "", "run to -checkpoint-at, write the sealed state here and exit (single run or scenario)")
		ckptAt  = fs.Int64("checkpoint-at", 0, "tick to capture the -checkpoint-out state at")
		ckptIn  = fs.String("checkpoint-in", "", "resume a checkpoint file to completion instead of starting fresh")

		telemPath = fs.String("telemetry", "", "stream the run's trace events and metric samples as JSONL to this file (- for stdout); single in-process runs only")
		progress  = fs.Bool("progress", false, "live progress on stderr: a run ticker (tick, population, record rate, RSS), or the per-worker table with a fleet")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: flags go first, and the subcommands are scenarios and checkpoint", fs.Arg(0))
	}
	if *pprofAddr != "" {
		if err := cli.ServePprof(*pprofAddr, logf); err != nil {
			return err
		}
	}
	if *worker {
		return fleet.ServeWorker(os.Stdin, os.Stdout, fleet.WorkerOptions{Logf: logf})
	}
	if *workerConn != "" {
		logf("joining fleet coordinator at %s", *workerConn)
		return fleet.DialWorker(*workerConn, *fleetToken, fleet.WorkerOptions{Logf: logf})
	}
	wkOver, err := workloadOverride(*wkArg, *repPath)
	if err != nil {
		return err
	}
	useFleet := *workers > 0 || *fleetListen != ""
	if *telemPath != "" && (*runs > 1 || useFleet || *ckptOut != "") {
		return fmt.Errorf("-telemetry streams one in-process run; it is mutually exclusive with -runs > 1, fleet flags and -checkpoint-out")
	}
	if *progress && *ckptOut != "" {
		return fmt.Errorf("-progress tracks a full run; it is mutually exclusive with -checkpoint-out")
	}
	if *progress && *runs > 1 && !useFleet {
		return fmt.Errorf("-progress with -runs > 1 renders the fleet table; give it a fleet with -workers")
	}
	if *recPath != "" && (*runs > 1 || useFleet || *ckptOut != "" || *ckptIn != "") {
		return fmt.Errorf("-record captures a single uninterrupted in-process run; it is mutually exclusive with -runs > 1, fleet flags and checkpointing")
	}
	one := single{csvPath: *csvPath, recPath: *recPath, telemetryPath: *telemPath, progress: *progress, stdout: stdout}
	if *ckptOut == "" {
		if err := rejectIgnored(fs, "-checkpoint-at is the tick -checkpoint-out captures at, and no -checkpoint-out is given", []string{"checkpoint-at"}); err != nil {
			return err
		}
	}
	if *ckptIn != "" {
		if *scenPath != "" || *configPath != "" || *ckptOut != "" {
			return fmt.Errorf("-checkpoint-in resumes a finished state description; it is mutually exclusive with -scenario, -config and -checkpoint-out")
		}
		if wkOver != nil {
			return fmt.Errorf("-checkpoint-in resumes a sealed state; it is mutually exclusive with -workload and -replay")
		}
		if useFleet {
			return fmt.Errorf("-checkpoint-in runs in-process; it takes no fleet flags")
		}
		if err := rejectIgnored(fs, "-checkpoint-in resumes the state sealed in the file", append(ignoredByFile, "policy", "runs")); err != nil {
			return err
		}
		return one.resume(*ckptIn)
	}
	if *ckptOut != "" && *ckptAt <= 0 {
		return fmt.Errorf("-checkpoint-out needs -checkpoint-at <tick> > 0")
	}
	if *scenPath != "" {
		if *configPath != "" {
			return fmt.Errorf("-scenario and -config are mutually exclusive")
		}
		if err := rejectIgnored(fs, "-scenario runs the configuration its spec gives", append(ignoredByFile, "policy")); err != nil {
			return err
		}
		if *ckptOut != "" && (*runs > 1 || useFleet) {
			return fmt.Errorf("-checkpoint-out captures a single run; it is mutually exclusive with -runs > 1 and fleet flags")
		}
		if *runs <= 1 && useFleet {
			return fmt.Errorf("-workers shards replicas; give it work with -runs > 1")
		}
		spec, err := loadScenario(*scenPath)
		if err != nil {
			return err
		}
		if wkOver != nil {
			spec.Base.Workload = wkOver
		}
		if *ckptOut != "" {
			return writeScenarioCheckpoint(spec, *ckptAt, *ckptOut)
		}
		if *runs <= 1 {
			r, err := spec.Start()
			if err != nil {
				return err
			}
			return one.runOne(r.World(), spec.Name, r.Finish)
		}
		opt := experiments.Options{Runs: *runs, Journal: *journal}
		if useFleet {
			f, err := cli.NewFleet(*workers, *fleetListen, *fleetToken, *progress, logf)
			if err != nil {
				return err
			}
			defer f.Close()
			opt.Fleet = f
		}
		reps, err := experiments.RunScenarioReplicas(spec, opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.ScenarioTable(reps))
		return writeCSV(*csvPath, reps[0].Result)
	}
	if useFleet {
		return fmt.Errorf("-workers and -fleet-listen need -scenario (only replica sweeps shard)")
	}
	if *journal != "" {
		return fmt.Errorf("-fleet-journal needs a fleet (-workers or -fleet-listen)")
	}
	if err := rejectIgnored(fs, "-runs replicates a -scenario, and a flag-built or -config world runs once", []string{"runs"}); err != nil {
		return err
	}

	if *configPath != "" {
		if err := rejectIgnored(fs, "-config runs the configuration the file gives", ignoredByFile); err != nil {
			return err
		}
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		if cfg, err = config.Load(data); err != nil {
			return err
		}
		if cfg.RequireIntroductions {
			if err := rejectIgnored(fs, "a -config file that requires introductions uses no bootstrap policy", []string{"policy"}); err != nil {
				return err
			}
		}
	} else {
		cfg.RequireIntroductions = !*noIntro
		if *mu > 0 {
			// The flag-built churn process uses the steady-state defaults;
			// scenario files expose the full parameter set.
			cfg.Churn.Mu = *mu
			cfg.Churn.CrashFrac = 0.25
			cfg.Churn.RejoinProb = 0.4
			cfg.Churn.DowntimeMean = 2_500
		}
	}
	if wkOver != nil {
		cfg.Workload = wkOver
	}
	w, err := world.New(cfg)
	if err != nil {
		return err
	}
	if !cfg.RequireIntroductions {
		pol, err := baseline.ByName(*policyName)
		if err != nil {
			return err
		}
		w.SetPolicy(pol)
	}
	if *ckptOut != "" {
		return writeWorldCheckpoint(w, *ckptAt, *ckptOut)
	}
	return one.runOne(w, "", func() (*scenario.Result, error) {
		if err := w.Run(); err != nil {
			return nil, err
		}
		return worldResult(w), nil
	})
}

// rejectIgnored fails when the user set any of the named flags, which the
// run ignores for the reason why gives, and names each one: a flag that
// silently does nothing reads as a run that honoured it.
func rejectIgnored(fs *flag.FlagSet, why string, names []string) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	return fmt.Errorf("%s, so the run ignores %s", why, strings.Join(set, ", "))
}

// single routes one in-process run's results: the -csv series, the
// -record trace, the -telemetry stream and -progress ticker, and the
// summary on stdout.
type single struct {
	csvPath, recPath, telemetryPath string
	progress                        bool
	stdout                          io.Writer
}

// runOne is the tail every single in-process run shares. It attaches
// the -record recorder and the observers to w, lets play run the world
// to its end, detaches them, writes the trace, and reports the result
// play returns: the summary on stdout and, with -csv, its series. name
// is the scenario's, or empty for a plain configured world.
func (s single) runOne(w *world.World, name string, play func() (*scenario.Result, error)) error {
	var rec *workload.Recorder
	if s.recPath != "" {
		rec = workload.NewRecorder(workload.Header{Scenario: name, Seed: w.Config().Seed})
		w.SetWorkloadRecorder(rec)
	}
	label := "replend-sim"
	if name != "" {
		label = "scenario " + name
	}
	finishObs, err := s.observe(w, label)
	if err != nil {
		return err
	}
	res, err := play()
	if err != nil {
		return err
	}
	if err := finishObs(); err != nil {
		return err
	}
	if rec != nil {
		if err := writeTrace(s.recPath, rec); err != nil {
			return err
		}
	}
	fmt.Fprint(s.stdout, res.Summary())
	return writeCSV(s.csvPath, res)
}

// worldResult reports a finished plain world — flag-built, -config or
// resumed — as a nameless scenario, so it prints and writes its series
// the way every scenario run does.
func worldResult(w *world.World) *scenario.Result {
	return &scenario.Result{
		Spec:    &scenario.Spec{Base: w.Config()},
		Metrics: *w.Metrics(),
		Proto:   w.Protocol().Stats(),
		Members: w.PopulationSize(),
	}
}

// writeCSV writes a run's series to path; an empty path writes nothing.
func writeCSV(path string, res *scenario.Result) error {
	if path == "" {
		return nil
	}
	csv, err := res.CSV()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		return err
	}
	logf("series written to %s", path)
	return nil
}

// workloadOverride resolves the -workload and -replay flags into one
// spec: -workload names a JSON spec file or a built-in preset, -replay
// swaps the generator for a recorded trace's events. A trace cannot
// combine with a rate program (the trace already fixes every arrival).
func workloadOverride(wkArg, repPath string) (*workload.Spec, error) {
	var spec *workload.Spec
	if wkArg != "" {
		var err error
		if spec, err = cli.LoadWorkload(wkArg); err != nil {
			return nil, err
		}
	}
	if repPath == "" {
		return spec, nil
	}
	if spec != nil && spec.Rate != nil {
		return nil, fmt.Errorf("-replay re-drives recorded arrivals; it is mutually exclusive with a -workload rate program")
	}
	f, err := os.Open(repPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, events, err := workload.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", repPath, err)
	}
	if spec == nil {
		spec = &workload.Spec{}
	}
	spec.Trace = events
	return spec, nil
}

// writeTrace seals a recorded run's workload events to a JSONL file.
func writeTrace(path string, rec *workload.Recorder) error {
	data, err := rec.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	logf("trace with %d events written to %s", len(rec.Events()), path)
	return nil
}

// loadScenario resolves a -scenario argument: a path to a JSON spec, or
// the name of a built-in.
func loadScenario(nameOrPath string) (*scenario.Spec, error) {
	if data, err := os.ReadFile(nameOrPath); err == nil {
		return scenario.Load(data)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return scenario.Get(nameOrPath)
}

// logf is the progress/log channel: stderr, never stdout — stdout belongs
// to results (and to protocol frames in worker mode).
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "replend-sim: "+format+"\n", args...)
}

// scenariosCmd implements `replend-sim scenarios list|describe|dump`.
func scenariosCmd(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: replend-sim scenarios list|describe <name>|dump <name>")
	}
	switch args[0] {
	case "list":
		for _, name := range scenario.Names() {
			s, err := scenario.Get(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-15s %s\n", name, s.Description)
		}
		return nil
	case "describe", "dump":
		if len(args) != 2 {
			return fmt.Errorf("usage: replend-sim scenarios %s <name>", args[0])
		}
		s, err := scenario.Get(args[1])
		if err != nil {
			return err
		}
		if args[0] == "describe" {
			fmt.Fprint(out, s.Describe())
			return nil
		}
		data, err := s.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}
	return fmt.Errorf("unknown scenarios subcommand %q (want list, describe or dump)", args[0])
}
