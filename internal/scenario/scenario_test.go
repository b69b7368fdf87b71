package scenario

import (
	"strings"
	"testing"

	"repro/internal/config"
)

// minimalSpec returns a tiny valid scenario for mutation in tests.
func minimalSpec() *Spec {
	base := config.Default()
	base.NumInit = 30
	base.NumTrans = 3_000
	base.Lambda = 0
	base.WaitPeriod = 100
	base.Seed = 3
	return &Spec{Name: "tiny", Base: base}
}

func TestLoadAppliesDefaultsAndValidates(t *testing.T) {
	s, err := Load([]byte(`{"name": "mini", "base": {"numInit": 25, "numTrans": 2000, "seed": 4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Base.NumInit != 25 || s.Base.NumTrans != 2000 || s.Base.Seed != 4 {
		t.Fatalf("explicit fields lost: %+v", s.Base)
	}
	def := config.Default()
	if s.Base.Lambda != def.Lambda || s.Base.WaitPeriod != def.WaitPeriod || s.Base.Topology != def.Topology {
		t.Fatalf("absent fields did not default: %+v", s.Base)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"syntax", `{"name": `, "parsing"},
		{"unknown top-level field", `{"name": "x", "phasez": []}`, "phasez"},
		{"unknown base field", `{"name": "x", "base": {"lamda": 0.1}}`, "lamda"},
		{"trailing data", `{"name": "x"} {"name": "y"}`, "trailing data"},
		{"missing name", `{"base": {"numInit": 10}}`, "missing name"},
		{"invalid base", `{"name": "x", "base": {"numSM": 0}}`, "NumSM"},
		{"phase before schedule cursor",
			`{"name": "x", "base": {"numTrans": 9000}, "phases": [
			   {"at": 100, "inject": [{"class": "uncooperative", "count": 3, "spacedBy": 500, "introducer": {}}]},
			   {"at": 200, "set": {"lambda": 0.1}}]}`,
			"already at tick"},
		{"phases past run length",
			`{"name": "x", "base": {"numTrans": 1000}, "phases": [
			   {"at": 900, "inject": [{"class": "uncooperative", "count": 5, "spacedBy": 100, "introducer": {}}]}]}`,
			"past the run length"},
		{"empty phase", `{"name": "x", "phases": [{"at": 10}]}`, "no actions"},
		{"empty set delta", `{"name": "x", "phases": [{"at": 10, "set": {}}]}`, "empty set delta"},
		{"invalid delta",
			`{"name": "x", "phases": [{"at": 10, "set": {"fracUncoop": 2}}]}`, "FracUncoop"},
		{"cumulative delta conflict",
			`{"name": "x", "phases": [
			   {"at": 10, "set": {"minIntroRep": 0.2}},
			   {"at": 20, "set": {"introAmt": 0.3}}]}`,
			"MinIntroRep"},
		{"bad class", `{"name": "x", "phases": [{"at": 10, "inject": [{"class": "evil", "introducer": {}}]}]}`, "unknown class"},
		{"bad style", `{"name": "x", "phases": [{"at": 10, "inject": [{"class": "cooperative", "style": "chatty", "introducer": {}}]}]}`, "unknown style"},
		{"selective freerider",
			`{"name": "x", "phases": [{"at": 10, "inject": [{"class": "uncooperative", "style": "selective", "introducer": {}}]}]}`,
			"always naive"},
		{"uncooperative traitor",
			`{"name": "x", "phases": [{"at": 10, "inject": [{"class": "uncooperative", "defectAfter": 5, "introducer": {}}]}]}`,
			"must start cooperative"},
		{"unbound ref",
			`{"name": "x", "phases": [{"at": 10, "inject": [{"class": "cooperative", "introducer": {"ref": "ghost"}}]}]}`,
			`ref "ghost"`},
		{"ref mixed with scan",
			`{"name": "x", "phases": [
			   {"at": 5, "inject": [{"as": "m", "class": "cooperative", "introducer": {}}]},
			   {"at": 10, "inject": [{"class": "cooperative", "introducer": {"ref": "m", "style": "naive"}}]}]}`,
			"cannot combine"},
		{"duplicate label",
			`{"name": "x", "phases": [
			   {"at": 5, "inject": [{"as": "m", "class": "cooperative", "introducer": {}}]},
			   {"at": 10, "inject": [{"as": "m", "class": "cooperative", "introducer": {}}]}]}`,
			"duplicate label"},
		{"crash fraction", `{"name": "x", "phases": [{"at": 10, "crash": {"scoreManagersOf": {}, "fraction": 1.5}}]}`, "out of [0,1]"},
		{"bad minRep", `{"name": "x", "phases": [{"at": 10, "inject": [{"class": "cooperative", "introducer": {"minRep": 1}}]}]}`, "minRep"},
		{"bad output series", `{"name": "x", "output": {"series": ["latency"]}}`, "unknown output series"},
		{"unknown workload field",
			`{"name": "x", "base": {"workload": {"cadence": 3}}}`, "cadence"},
		{"workload rate and trace conflict",
			`{"name": "x", "base": {"workload": {
			   "rate": {"windows": [{"len": 100, "lambda": 0.1}]},
			   "trace": [{"at": 1, "op": "arrival"}]}}}`,
			"mutually exclusive"},
		{"nameless cohort",
			`{"name": "x", "base": {"workload": {"cohorts": [{"weight": 1}]}}}`,
			"cohort needs a name"},
		{"empty rate program",
			`{"name": "x", "base": {"workload": {"rate": {"windows": []}}}}`,
			"at least one window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted: %s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestRegistryListsAndBuildsFreshSpecs(t *testing.T) {
	names := Names()
	for _, want := range []string{"quickstart", "churn", "collusion", "filesharing", "api", "churn-wave", "traitor"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("built-in %q not registered (have %v)", want, names)
		}
	}
	a, err := Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	a.Base.Seed = 12345
	if b.Base.Seed == 12345 || a == b {
		t.Fatal("Get returned a shared spec; mutations leak between callers")
	}
	if _, err := Get("nope"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown scenario: %v", err)
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	if err := Register("quickstart", minimalSpec); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register("", minimalSpec); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register("nil-builder", nil); err == nil {
		t.Fatal("nil builder accepted")
	}
}

// TestChurnWaveDeltasTakeEffect runs the delta-showcase built-in and
// checks the wave actually changed the arrival process: the population
// grows much faster during the hot window than in the calm ones.
func TestChurnWaveDeltasTakeEffect(t *testing.T) {
	spec, err := Get("churn-wave")
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepPhase(); err != nil { // wave hits at 10000
		t.Fatal(err)
	}
	calm := r.World().Metrics().ArrivalsCoop + r.World().Metrics().ArrivalsUncoop
	if lam := r.World().Config().Lambda; lam != 0.2 {
		t.Fatalf("λ after wave-hits phase: %v", lam)
	}
	if _, err := r.StepPhase(); err != nil { // wave passes at 20000
		t.Fatal(err)
	}
	hot := r.World().Metrics().ArrivalsCoop + r.World().Metrics().ArrivalsUncoop - calm
	res, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tail := res.Metrics.ArrivalsCoop + res.Metrics.ArrivalsUncoop - hot - calm
	// Expected arrivals: calm ≈ 0.02×10000 = 200, hot ≈ 0.2×10000 = 2000.
	if hot < 4*calm || hot < 4*tail {
		t.Fatalf("wave did not spike arrivals: calm=%d hot=%d tail=%d", calm, hot, tail)
	}
	if res.Spec.Base.Lambda != 0.02 {
		t.Fatalf("spec mutated by run: λ=%v", res.Spec.Base.Lambda)
	}
}

// TestTraitorScenarioDefectsAndCollapses runs the traitor built-in and
// checks the milkers passed audits and then lost their standing.
func TestTraitorScenarioDefectsAndCollapses(t *testing.T) {
	spec, err := Get("traitor")
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.AuditsSatisfied == 0 {
		t.Fatal("no audits satisfied: traitors never passed as honest")
	}
	// The experiments package calls a traitor "collapsed" once its
	// reputation falls below 0.5 (it entered holding ~1.0).
	for label, rep := range res.FinalReputation {
		if rep >= 0.5 {
			t.Errorf("%s still holds reputation %.3f after defecting", label, rep)
		}
	}
	if len(res.FinalReputation) != 3 {
		t.Fatalf("expected 3 labelled traitors, got %v", res.FinalReputation)
	}
}

func TestRunResultCSVAndSummary(t *testing.T) {
	s := minimalSpec()
	s.Output.Series = []string{"coop-reputation"}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	csv, err := res.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv, "t,coop-reputation\n") {
		t.Fatalf("csv header: %q", csv[:30])
	}
	if strings.Count(csv, "\n") < 2 {
		t.Fatal("csv has no data rows")
	}
	sum := res.Summary()
	for _, want := range []string{"scenario \"tiny\"", "population:", "success rate:"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestStepPhaseRejectsOverrunClock(t *testing.T) {
	s := minimalSpec()
	s.Phases = []Phase{{Name: "late", At: 100, Inject: []Injection{{
		Class: "cooperative", Introducer: Selector{},
	}}}}
	r, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	r.World().RunFor(500) // driver overshoots the phase tick
	if _, err := r.StepPhase(); err == nil || !strings.Contains(err.Error(), "already at") {
		t.Fatalf("overrun clock not caught: %v", err)
	}
}

func TestSelectorFailsWithoutMatchUnlessFallback(t *testing.T) {
	s := minimalSpec()
	s.Base.FracNaive = 0 // founders are all selective
	s.Phases = []Phase{{At: 10, Inject: []Injection{{
		Class: "cooperative", Introducer: Selector{Style: "naive"},
	}}}}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "no member matches") {
		t.Fatalf("matchless selector: %v", err)
	}
	s.Phases[0].Inject[0].Introducer.FallbackFirst = true
	if _, err := s.Run(); err != nil {
		t.Fatalf("fallback selector failed: %v", err)
	}
}

// TestDescribeShowsFullEffectiveConfig pins the describe fix: the
// churn, session and stake fields added in later PRs must appear, so
// documentation examples can be generated from the tool without rotting.
func TestDescribeShowsFullEffectiveConfig(t *testing.T) {
	get := func(name string) string {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return s.Describe()
	}
	stake := get("stake-churn")
	for _, want := range []string{"μ=0.008", "audit timeout 12000", "35% rejoin", "auditTrans 10", "sampling: every 2500"} {
		if !strings.Contains(stake, want) {
			t.Errorf("stake-churn describe missing %q:\n%s", want, stake)
		}
	}
	heavy := get("churn-heavytail")
	if !strings.Contains(heavy, "session clocks pareto(mean 50000)") {
		t.Errorf("churn-heavytail describe missing the session model:\n%s", heavy)
	}
	plain := get("collusion")
	for _, want := range []string{"churn: none", "stakes: no timeout", "workload: homogeneous Poisson arrivals"} {
		if !strings.Contains(plain, want) {
			t.Errorf("collusion describe missing %q:\n%s", want, plain)
		}
	}
	diurnal := get("diurnal")
	if !strings.Contains(diurnal, "workload rate: 4 windows repeating every 30000 ticks, peak λ=0.15, 1 spike(s); config λ ignored") {
		t.Errorf("diurnal describe missing the rate program:\n%s", diurnal)
	}
	mix := get("cohort-mix")
	if !strings.Contains(mix, "workload cohorts: resident 20%, mobile-churner 50%, freeloader 30%") {
		t.Errorf("cohort-mix describe missing the cohort mix:\n%s", mix)
	}
}
