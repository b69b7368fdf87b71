package experiments

import (
	"strings"
	"testing"
)

// tiny returns options that shrink every experiment enough for CI while
// preserving the qualitative shapes.
func tiny() Options {
	return Options{Runs: 2, Scale: 0.04, SeedBase: 11}
}

// runs caches the reports of tinyRun: at tiny() options every experiment
// is the run the golden test pins, so it runs once per test binary.
var runs = map[string]Report{}

// tinyRun returns the named experiment's report at tiny() options.
func tinyRun(t *testing.T, name string) Report {
	t.Helper()
	if r, ok := runs[name]; ok {
		return r
	}
	r, err := Run(name, tiny())
	if err != nil {
		t.Fatal(err)
	}
	runs[name] = r
	return r
}

// tinySweep is tinyRun for a replica experiment.
func tinySweep(t *testing.T, name string) *Sweep {
	t.Helper()
	return tinyRun(t, name).(*Sweep)
}

// column returns a sweep's values under the column headed header, one
// per point.
func column(t *testing.T, s *Sweep, header string) []float64 {
	t.Helper()
	for c, col := range s.Columns {
		if col.Header == header {
			out := make([]float64, len(s.Points))
			for i, p := range s.Points {
				out[i] = p.Values[c]
			}
			return out
		}
	}
	t.Fatalf("%s has no column %q", s.Name(), header)
	return nil
}

// point returns the sweep's point keyed key.
func point(t *testing.T, s *Sweep, key any) *Point {
	t.Helper()
	for i := range s.Points {
		if s.Points[i].Key == key {
			return &s.Points[i]
		}
	}
	t.Fatalf("%s has no point %v", s.Name(), key)
	return nil
}

// value returns the point keyed key's value under the column headed header.
func value(t *testing.T, s *Sweep, key any, header string) float64 {
	t.Helper()
	p := point(t, s, key)
	for c, col := range s.Columns {
		if col.Header == header {
			return p.Values[c]
		}
	}
	t.Fatalf("%s has no column %q", s.Name(), header)
	return 0
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Runs != 10 || o.Parallel < 1 || o.Scale != 1 || o.SeedBase == 0 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestOptionsApplyScaling(t *testing.T) {
	o := Options{Scale: 0.1}.withDefaults()
	c := o.apply(growth())
	if c.NumInit != 50 || c.NumTrans != 5000 {
		t.Fatalf("scaled config = %+v", c)
	}
	if c.SampleEvery != 50 {
		t.Fatalf("SampleEvery = %d", c.SampleEvery)
	}
	// Floors kick in at extreme scales.
	o2 := Options{Scale: 0.001}.withDefaults()
	c2 := o2.apply(growth())
	if c2.NumInit < 20 || c2.NumTrans < 2000 {
		t.Fatalf("floors not applied: %+v", c2)
	}
}

func TestFig1Shape(t *testing.T) {
	f := tinySweep(t, "fig1")
	for _, k := range []string{"random", "powerlaw"} {
		if value(t, f, k, "final coop") <= 0 {
			t.Fatalf("%v: no cooperative peers", k)
		}
		// Headline claim: uncooperative admissions grow far slower than
		// 1/3 of cooperative admissions (the arriving ratio).
		if slope := value(t, f, k, "uncoop admitted per coop admitted"); slope >= 1.0/3 {
			t.Fatalf("%v: slope %v not below arriving ratio 1/3", k, slope)
		}
		// The populations must actually grow over the run.
		coop := point(t, f, k).series[0].Points
		first, last := coop[0].V, coop[len(coop)-1].V
		if last <= first {
			t.Fatalf("%v: cooperative population did not grow (%v -> %v)", k, first, last)
		}
	}
	if !strings.Contains(f.Table(), "Figure 1") {
		t.Fatal("table missing title")
	}
	if !strings.HasPrefix(f.CSV(), "coop_random,") {
		t.Fatal("CSV header wrong")
	}
}

func TestSuccessRateShape(t *testing.T) {
	s := tinySweep(t, "successrate")
	with := value(t, s, "introductions required", "success rate")
	without := value(t, s, "open admission", "success rate")
	if with <= 0.5 || without <= 0.5 {
		t.Fatalf("success rates too low: with=%v without=%v", with, without)
	}
	// The paper's claim: the two are close (no significant degradation).
	if diff := with - without; diff < -0.2 || diff > 0.2 {
		t.Fatalf("success rates far apart: with=%v without=%v", with, without)
	}
	if !strings.Contains(s.Table(), "success rate") {
		t.Fatal("table missing header")
	}
	if !strings.Contains(s.CSV(), "with_introductions") {
		t.Fatal("CSV missing row")
	}
}

func TestFig2Shape(t *testing.T) {
	// Two contrasting rates suffice for the shape check.
	f, err := RunFig2([]float64{0.1, 0.005}, tiny())
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := value(t, f, 0.005, "final"), value(t, f, 0.1, "final")
	if slow <= 0 || fast <= 0 {
		t.Fatalf("degenerate finals: %v %v", slow, fast)
	}
	// Gentler arrivals keep cooperative reputation at least as high.
	if slow+0.05 < fast {
		t.Fatalf("λ=0.005 final %v unexpectedly below λ=0.1 final %v", slow, fast)
	}
	// The high-rate curve must dip below the low-rate curve's minimum at
	// some point (the "overwhelmed" regime).
	if low, high := value(t, f, 0.005, "min over run"), value(t, f, 0.1, "min over run"); high >= low {
		t.Logf("note: high-λ min %v not below low-λ min %v at this tiny scale", high, low)
	}
	if len(f.Points) != 2 {
		t.Fatalf("points = %v", f.Points)
	}
	if !strings.Contains(f.CSV(), "rep-lambda-0.1") {
		t.Fatal("CSV missing series")
	}
}

func TestFig3Shape(t *testing.T) {
	f, err := RunFig3([]float64{0, 0.5, 1}, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 3 {
		t.Fatalf("points = %v", f.Points)
	}
	// More naive introducers admit more freeriders.
	if uncoop := column(t, f, "uncoop in system"); uncoop[2] <= uncoop[0] {
		t.Fatalf("uncoop not increasing in fracNaive: %v", uncoop)
	}
	if !strings.Contains(f.Table(), "naive") {
		t.Fatal("table missing context")
	}
}

func TestFig45Shape(t *testing.T) {
	f, err := RunFig45([]float64{0.05, 0.45}, tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Lending 0.45 refuses far more entries for introducer reputation
	// than lending 0.05.
	if refused := column(t, f, "refused: introducer rep"); refused[1] <= refused[0] {
		t.Fatalf("rep-floor refusals not increasing with introAmt: %v", refused)
	}
	// Proportions stay comparable (the Figure 5 claim) — loose check.
	if prop := column(t, f, "prop coop"); prop[0] < 0.5 || prop[1] < 0.5 {
		t.Fatalf("cooperative majority lost: %v", prop)
	}
	if !strings.Contains(f.Table(), "Figure 5") {
		t.Fatal("table missing Figure 5 section")
	}
}

func TestFig6Shape(t *testing.T) {
	f, err := RunFig6([]float64{0, 50, 100}, tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Cooperative membership falls as the arriving mix sours.
	coop, uncoop := column(t, f, "coop"), column(t, f, "uncoop")
	if !(coop[0] > coop[1] && coop[1] > coop[2]) {
		t.Fatalf("coop not decreasing in pctUncoop: %v", coop)
	}
	// At 0% uncooperative arrivals, no uncooperative peers.
	if uncoop[0] != 0 {
		t.Fatalf("uncoop at 0%% arrivals = %v", uncoop[0])
	}
	// At 100%, the community is not swamped: uncooperative membership
	// stays below the number that tried to enter.
	if uncoop[2] <= 0 {
		t.Fatalf("no uncoop admitted at 100%%: %v", uncoop)
	}
}

func TestCollusionBoundsDamage(t *testing.T) {
	c := tinyRun(t, "collusion").(*Collusion)
	if c.ColludersTried == 0 {
		t.Fatal("no colluders tried")
	}
	// The staking defence must refuse part of the spree.
	if c.ColludersRefused == 0 {
		t.Fatalf("every colluder was admitted: %+v", c)
	}
	// The mole pays: reputation after the spree is below before.
	if c.MoleRepAfter >= c.MoleRepBefore {
		t.Fatalf("mole reputation did not drop: %v -> %v", c.MoleRepBefore, c.MoleRepAfter)
	}
	// Colluders cannot hold high reputation after audits.
	if c.MaxColluderRep > 0.5 {
		t.Fatalf("a colluder retains reputation %v", c.MaxColluderRep)
	}
	if !strings.Contains(c.Table(), "collusion") {
		t.Fatal("table missing title")
	}
}

func TestBaselinesOrdering(t *testing.T) {
	b := tinySweep(t, "baselines")
	if len(b.Points) != 5 {
		t.Fatalf("rows = %d", len(b.Points))
	}
	if value(t, b, "reputation-lending", "coop admitted") == 0 {
		t.Fatal("lending admitted no cooperative peers")
	}
	// Complaints-based trusts everyone: it must admit every uncooperative
	// arrival, far above lending's contamination ratio.
	lend := value(t, b, "reputation-lending", "uncoop per coop")
	complaints := value(t, b, "complaints-based", "uncoop per coop")
	if complaints <= lend {
		t.Fatalf("lending (%v) not cleaner than complaints-based (%v)", lend, complaints)
	}
	if !strings.Contains(b.CSV(), "reputation-lending") {
		t.Fatal("CSV missing lending row")
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	r, err := Run("fig3", Options{Runs: 1, Scale: 0.04, SeedBase: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "fig3" {
		t.Fatalf("dispatched wrong experiment: %s", r.Name())
	}
	for _, n := range Names() {
		if n == "" {
			t.Fatal("empty name in registry")
		}
	}
	// The aliases run their experiment's report.
	for alias, name := range map[string]string{"fig5": "fig4+fig5", "t2": "successrate"} {
		r, err := Run(alias, Options{Runs: 1, Scale: 0.04, SeedBase: 3})
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != name {
			t.Fatalf("alias %s ran %s, want %s", alias, r.Name(), name)
		}
	}
}

func TestTextTableAlignment(t *testing.T) {
	tt := &TextTable{Title: "T", Header: []string{"a", "long-column"}}
	tt.AddRow("x", 1.23456789)
	tt.AddRow("yyyyy", "z")
	s := tt.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("table lines = %d:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[3], "1.235") {
		t.Fatalf("float not compacted: %q", lines[3])
	}
}

func TestPlotsRender(t *testing.T) {
	f, err := RunFig3([]float64{0, 1}, Options{Runs: 1, Scale: 0.04, SeedBase: 5})
	if err != nil {
		t.Fatal(err)
	}
	plot := PlotOf(f)
	if !strings.Contains(plot, "naive") || !strings.Contains(plot, "*") {
		t.Fatalf("fig3 plot missing content:\n%s", plot)
	}
	// A sweep without a chart, and a report without a Plot method, yield "".
	if PlotOf(&Sweep{}) != "" || PlotOf(&Collusion{}) != "" {
		t.Fatal("report without a chart produced a plot")
	}
}

func TestWhitewashShape(t *testing.T) {
	w := tinySweep(t, "whitewash")
	lend := value(t, w, "reputation-lending", "service per identity")
	complaints := value(t, w, "complaints-based", "service per identity")
	if complaints <= lend {
		t.Fatalf("whitewashing not cheaper under complaints-based: lending %v vs complaints %v", lend, complaints)
	}
	if cost := value(t, w, "reputation-lending", "introducer reputation forfeited"); cost < 0 {
		t.Fatalf("negative introducer cost: %v", cost)
	}
	if !strings.Contains(w.Table(), "Whitewashing") || !strings.Contains(w.CSV(), "complaints-based") {
		t.Fatal("report rendering broken")
	}
}

func TestAblationShape(t *testing.T) {
	a := tinySweep(t, "ablation")
	if len(a.Points) != len(AblationRewardRatios)+len(AblationAuditTrans) {
		t.Fatalf("sweep sizes wrong: %+v", a.Points)
	}
	// Earlier audits complete more often within a fixed run.
	done := func(at int) float64 {
		return value(t, a, at, "audits satisfied") + value(t, a, at, "audits forfeited")
	}
	early, late := done(AblationAuditTrans[0]), done(AblationAuditTrans[len(AblationAuditTrans)-1])
	if early <= late {
		t.Fatalf("early audits (%v) did not outpace late audits (%v)", early, late)
	}
	if !strings.Contains(a.Table(), "Ablation A") || !strings.Contains(a.Table(), "Ablation B") {
		t.Fatal("table sections missing")
	}
}

func TestTraitorMilkingContained(t *testing.T) {
	tr, err := RunTraitor(Options{Runs: 1, Scale: 0.1, SeedBase: 21})
	if err != nil {
		t.Fatal(err)
	}
	// The milking attack works at the lending layer: the traitors pass
	// their audits while honest.
	if tr.AuditsSatisfiedBeforeDefection == 0 {
		t.Fatal("no audits passed before defection — traitors never established themselves")
	}
	if tr.RepAtDefection < 0.6 {
		t.Fatalf("traitors defected before earning standing: %v", tr.RepAtDefection)
	}
	// ROCQ contains it: reputation collapses after defection.
	if tr.CollapseTicks < 0 {
		t.Fatalf("traitor reputation never collapsed: %+v", tr)
	}
	if tr.RepAfter >= tr.RepAtDefection {
		t.Fatalf("reputation did not fall: %v -> %v", tr.RepAtDefection, tr.RepAfter)
	}
	if !strings.Contains(tr.Table(), "milking") || !strings.Contains(tr.CSV(), "collapse_ticks") {
		t.Fatal("report rendering broken")
	}
}

func TestSessionSweepShape(t *testing.T) {
	s := tinySweep(t, "sessions")
	if len(s.Points) != 3 || s.Points[0].Key != "exponential" || s.Points[2].Key != "pareto" {
		t.Fatalf("swept distributions = %v", s.Points)
	}
	for _, p := range s.Points {
		dist := p.Key
		if value(t, s, dist, "departed") == 0 {
			t.Fatalf("%s: session clocks drove no departures", dist)
		}
		if value(t, s, dist, "final pop") <= 0 {
			t.Fatalf("%s: community extinguished", dist)
		}
		// The calibration story: equal-mean session models migrate state
		// instead of losing it.
		if value(t, s, dist, "migrated") == 0 {
			t.Fatalf("%s: no records migrated under session churn", dist)
		}
	}
	if !strings.Contains(s.Table(), "Pareto") {
		t.Fatal("table missing the calibration note")
	}
	if !strings.HasPrefix(s.CSV(), "session_dist,") {
		t.Fatal("CSV header wrong")
	}
}

// TestStakeSweepConservesMass is the acceptance property of the stakes
// experiment: at every sweep point — timeout disabled or armed — the
// staked mass is exactly the sum of settled, refunded, stranded and
// still-pending mass, and the armed points actually drain the pending
// leak the disabled point exhibits.
func TestStakeSweepConservesMass(t *testing.T) {
	s := tinySweep(t, "stakes")
	if len(s.Points) < 3 || s.Points[0].Key != int64(0) {
		t.Fatalf("swept timeouts = %v, want the disabled control first", s.Points)
	}
	staked, settled := column(t, s, "mass staked"), column(t, s, "mass settled")
	refundedMass, stranded := column(t, s, "mass refunded"), column(t, s, "mass stranded")
	pending := column(t, s, "mass pending")
	refunded, expired := column(t, s, "refunded"), column(t, s, "expired")
	for i, p := range s.Points {
		timeout := p.Key
		sum := settled[i] + refundedMass[i] + stranded[i] + pending[i]
		if diff := staked[i] - sum; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("T=%d: staked mass %v != settled+refunded+stranded+pending %v (off by %v)",
				timeout, staked[i], sum, diff)
		}
		if timeout == int64(0) {
			if refunded[i] != 0 || expired[i] != 0 {
				t.Fatalf("disabled point ran the clock: %+v", p)
			}
			if pending[i] <= 0 {
				t.Fatal("disabled point shows no pending leak; the sweep has nothing to recover")
			}
			continue
		}
		if refunded[i] == 0 {
			t.Fatalf("T=%d: the timeout refunded nothing under churn", timeout)
		}
		if pending[i] >= pending[0] {
			t.Fatalf("T=%d: pending mass %v not below the disabled point's leak %v",
				timeout, pending[i], pending[0])
		}
	}
	if !strings.HasPrefix(s.CSV(), "stake_timeout,") {
		t.Fatal("CSV header wrong")
	}
	if !strings.Contains(s.Table(), "conserves") {
		t.Fatal("table missing the conservation note")
	}
}
