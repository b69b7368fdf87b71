package experiments

import "strings"

// Report is a regenerated table or figure: a human-readable text table
// (with the paper's expected shape noted underneath) and the raw CSV
// series for plotting.
type Report interface {
	// Name is the report's file stem (fig1, fig4+fig5, …, collusion).
	Name() string
	// Table renders the aligned text table.
	Table() string
	// CSV renders the machine-readable series.
	CSV() string
}

// Plotter is implemented by reports that can render themselves as ASCII
// charts with the same axes as the paper's figures. The CLI prints the
// plot beneath the numeric table.
type Plotter interface {
	Plot() string
}

// PlotOf returns the report's chart when it has one, or "".
func PlotOf(r Report) string {
	if p, ok := r.(Plotter); ok {
		if plot := p.Plot(); plot != "" {
			return strings.TrimRight(plot, "\n") + "\n"
		}
	}
	return ""
}

// registry is the one list of runnable experiments, in paper order. The
// thirteen replica experiments are sweeps; collusion and traitor drive one
// world through scripted phases.
var registry = []struct {
	name, alias string // an alias runs the same experiment
	run         func(Options) (Report, error)
}{
	{"fig1", "", report(fig1)},
	{"successrate", "t2", report(successRateSweep)},
	{"fig2", "", report(func(o Options) (*Sweep, error) { return RunFig2(nil, o) })},
	{"fig3", "", report(func(o Options) (*Sweep, error) { return RunFig3(nil, o) })},
	{"fig4", "fig5", report(func(o Options) (*Sweep, error) { return RunFig45(nil, o) })}, // one sweep, both figures
	{"fig6", "", report(func(o Options) (*Sweep, error) { return RunFig6(nil, o) })},
	{"collusion", "", report(RunCollusion)},
	{"baselines", "", report(baselines)},
	{"whitewash", "", report(whitewash)},
	{"ablation", "", report(ablation)},
	{"traitor", "", report(RunTraitor)},
	{"churn", "", report(churnSweep)},
	{"sessions", "", report(sessions)},
	{"stakes", "", report(stakes)},
	{"workload", "", report(workloads)},
}

// report adapts a typed experiment runner to the registry.
func report[R Report](run func(Options) (R, error)) func(Options) (Report, error) {
	return func(opt Options) (Report, error) {
		r, err := run(opt)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Names lists every runnable experiment identifier, in paper order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// Run runs one experiment by name or alias.
func Run(name string, opt Options) (Report, error) {
	for _, e := range registry {
		if name == e.name || (name == e.alias && name != "") {
			return e.run(opt.withDefaults())
		}
	}
	return nil, errUnknownExperiment(name)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "experiments: unknown experiment " + string(e)
}
