package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sim"
	"repro/internal/world"
)

// Traitor probes a limitation the paper leaves open (extension
// experiment): the admission audit is one-shot. A reputation-milking
// attacker behaves cooperatively, passes the audit (returning the
// introducer's stake), and defects afterwards. The question is what layer
// of the system contains it then — and the answer is ROCQ's sliding
// window: once defected, honest partners report 0, and the traitor's
// reputation collapses, implicitly excluding it. The lending layer's
// stake, however, has already been returned; traitors cost the community,
// not the introducer.
type Traitor struct {
	// RepAtDefection / RepAfter bracket the collapse.
	RepAtDefection float64
	RepAfter       float64
	// CollapseTicks is how long after defecting the traitor's mean
	// reputation fell below 0.5 (−1 if it never did within the run).
	CollapseTicks int64
	// ServedAfterDefection is the service the traitor extracted after
	// turning — the damage the one-shot audit cannot claw back.
	ServedAfterDefection int64
	// AuditsSatisfiedBeforeDefection shows the stake came back before the
	// betrayal (the structural limitation).
	AuditsSatisfiedBeforeDefection int64
	// Traitors is the number of milkers injected.
	Traitors int
}

// RunTraitor executes the scripted milking attack against one community.
func RunTraitor(opt Options) (*Traitor, error) {
	opt = opt.withDefaults()
	cfg := config.Default()
	cfg.Lambda = 0
	cfg.NumInit = 300
	cfg.NumTrans = 300_000
	cfg.WaitPeriod = 500
	cfg.AuditTrans = 10
	cfg.Seed = opt.SeedBase
	cfg = opt.apply(cfg)

	w, err := world.New(cfg)
	if err != nil {
		return nil, err
	}
	w.SetTelemetry(opt.Telemetry)
	w.Start()

	// Inject a handful of traitors that will defect at mid-run.
	defectAt := sim.Tick(cfg.NumTrans / 3)
	const nTraitors = 5
	var traitors []id.ID
	entry := naiveMember(w)
	for i := 0; i < nTraitors; i++ {
		tr, err := w.InjectTraitor(peer.Selective, entry, defectAt)
		if err != nil {
			return nil, err
		}
		traitors = append(traitors, tr)
		if err := w.RunFor(sim.Tick(cfg.WaitPeriod + 1)); err != nil {
			return nil, err
		}
	}

	// Honest phase: earn standing, pass audits.
	if err := w.RunFor(defectAt - w.Engine().Now()); err != nil {
		return nil, err
	}
	out := &Traitor{
		Traitors:                       nTraitors,
		RepAtDefection:                 meanRep(w, traitors),
		AuditsSatisfiedBeforeDefection: w.Metrics().AuditsSatisfied,
	}
	servedBefore := w.Metrics().ServedToUncoop

	// Defection phase: track the collapse in sampling-interval steps.
	out.CollapseTicks = -1
	step := sim.Tick(cfg.SampleEvery)
	for w.Engine().Now() < sim.Tick(cfg.NumTrans) {
		if err := w.RunFor(step); err != nil {
			return nil, err
		}
		if out.CollapseTicks < 0 && meanRep(w, traitors) < 0.5 {
			out.CollapseTicks = int64(w.Engine().Now() - defectAt)
		}
	}
	out.RepAfter = meanRep(w, traitors)
	out.ServedAfterDefection = w.Metrics().ServedToUncoop - servedBefore
	return out, nil
}

func meanRep(w *world.World, ids []id.ID) float64 {
	if len(ids) == 0 {
		return 0
	}
	sum := 0.0
	for _, pid := range ids {
		sum += w.Reputation(pid)
	}
	return sum / float64(len(ids))
}

// Name implements Report.
func (t *Traitor) Name() string { return "traitor" }

// Table renders the attack outcome.
func (t *Traitor) Table() string {
	tb := &TextTable{
		Title:  "Traitor (reputation milking) — the one-shot audit's blind spot, contained by ROCQ",
		Header: []string{"quantity", "value"},
	}
	tb.AddRow("traitors injected", t.Traitors)
	tb.AddRow("audits satisfied before defection", t.AuditsSatisfiedBeforeDefection)
	tb.AddRow("mean traitor reputation at defection", t.RepAtDefection)
	tb.AddRow("ticks until mean reputation < 0.5", t.CollapseTicks)
	tb.AddRow("mean traitor reputation at end", t.RepAfter)
	tb.AddRow("service extracted after defection", t.ServedAfterDefection)
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nexpected: audits pass while honest (stakes already returned — the milking attack is real),\n" +
		"but the sliding-window aggregate collapses the traitors' reputations soon after defection\n")
	return b.String()
}

// CSV renders the summary row.
func (t *Traitor) CSV() string {
	var b strings.Builder
	b.WriteString("traitors,audits_before,rep_at_defection,collapse_ticks,rep_after,served_after\n")
	fmt.Fprintf(&b, "%d,%d,%g,%d,%g,%d\n",
		t.Traitors, t.AuditsSatisfiedBeforeDefection, t.RepAtDefection,
		t.CollapseTicks, t.RepAfter, t.ServedAfterDefection)
	return b.String()
}
