package scenario

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/id"
	"repro/internal/lending"
	"repro/internal/metrics"
	"repro/internal/peer"
	"repro/internal/sim"
	"repro/internal/world"
)

// Run is an executing scenario. Spec.Start returns one positioned at tick
// 0 with the workload armed; StepPhase advances to and executes the next
// phase; Finish plays the rest and closes the run. Programs that only
// need the end state call Spec.Run.
type Run struct {
	// AfterInjection, when set, observes each scripted arrival right
	// after its SpacedBy interval has elapsed — the hook example drivers
	// use to narrate admissions wave by wave.
	//replend:allow snapshotfields observer hook owned by the driving program; a resuming driver re-attaches its own
	AfterInjection func(InjectionOutcome)

	spec     *Spec
	w        *world.World
	labels   map[string]id.ID
	outcomes []InjectionOutcome
	crashed  []id.ID
	next     int // index of the next phase to execute
	done     bool
}

// InjectionOutcome records one scripted arrival.
type InjectionOutcome struct {
	// Label is the binding name ("" for unlabelled injections).
	Label string
	// Phase names the phase that injected the peer.
	Phase string
	// Peer is the injected peer; Introducer the member it asked.
	Peer, Introducer id.ID
	// At is the injection tick.
	At sim.Tick
}

// Start validates the spec, builds its world and arms the workload
// processes without advancing time.
func (s *Spec) Start() (*Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w, err := world.New(s.Base)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	w.Start()
	return &Run{spec: s, w: w, labels: make(map[string]id.ID)}, nil
}

// Run executes the scenario start to finish and returns its result.
func (s *Spec) Run() (*Result, error) {
	r, err := s.Start()
	if err != nil {
		return nil, err
	}
	return r.Finish()
}

// World exposes the live simulation (for observation between phases).
// Drivers may advance it directly — e.g. in sampling-interval steps to
// print progress — as long as they do not run past the next phase's tick.
func (r *Run) World() *world.World { return r.w }

// Spec returns the scenario being executed.
func (r *Run) Spec() *Spec { return r.spec }

// Labeled resolves a label bound by an executed injection.
func (r *Run) Labeled(name string) (id.ID, bool) {
	pid, ok := r.labels[name]
	return pid, ok
}

// Outcomes lists the scripted arrivals executed so far.
func (r *Run) Outcomes() []InjectionOutcome {
	return append([]InjectionOutcome(nil), r.outcomes...)
}

// StepPhase advances the clock to the next phase's tick and executes its
// actions in order: set, crash, depart, inject, rejoin, recover. It
// returns the executed phase, or nil when every phase has already run.
// Spaced injections leave the clock at phase.At + count·spacedBy.
func (r *Run) StepPhase() (*Phase, error) {
	if r.next >= len(r.spec.Phases) {
		return nil, nil
	}
	ph := &r.spec.Phases[r.next]
	at := sim.Tick(ph.At)
	now := r.w.Engine().Now()
	if now > at {
		return nil, fmt.Errorf("scenario %q: phase %s fires at tick %d but the clock is already at %d",
			r.spec.Name, ph.label(), ph.At, now)
	}
	if at > now {
		if err := r.w.RunFor(at - now); err != nil {
			return nil, fmt.Errorf("scenario %q: advancing to phase %s: %w", r.spec.Name, ph.label(), err)
		}
	}
	if ph.Set != nil {
		if err := r.w.ApplyDelta(*ph.Set); err != nil {
			return nil, fmt.Errorf("scenario %q: phase %s: %w", r.spec.Name, ph.label(), err)
		}
	}
	if ph.Crash != nil {
		if err := r.crash(ph.Crash); err != nil {
			return nil, fmt.Errorf("scenario %q: phase %s: %w", r.spec.Name, ph.label(), err)
		}
	}
	if ph.Depart != nil {
		if err := r.depart(ph.Depart); err != nil {
			return nil, fmt.Errorf("scenario %q: phase %s: depart: %w", r.spec.Name, ph.label(), err)
		}
	}
	for j := range ph.Inject {
		if err := r.inject(&ph.Inject[j], ph); err != nil {
			return nil, fmt.Errorf("scenario %q: phase %s: injection %d: %w", r.spec.Name, ph.label(), j, err)
		}
	}
	for _, ref := range ph.Rejoin {
		pid, ok := r.labels[ref]
		if !ok {
			return nil, fmt.Errorf("scenario %q: phase %s: rejoin: label %q is not bound", r.spec.Name, ph.label(), ref)
		}
		if err := r.w.Rejoin(pid); err != nil {
			return nil, fmt.Errorf("scenario %q: phase %s: rejoin %q: %w", r.spec.Name, ph.label(), ref, err)
		}
	}
	if ph.Recover {
		for _, node := range r.crashed {
			r.w.Bus().Recover(node)
		}
		r.crashed = nil
	}
	r.next++
	return ph, nil
}

// Finish executes any remaining phases, runs the tail of the workload to
// Base.NumTrans, records the closing sample, and returns the result.
func (r *Run) Finish() (*Result, error) {
	if r.done {
		return nil, errors.New("scenario: run already finished")
	}
	for r.next < len(r.spec.Phases) {
		if _, err := r.StepPhase(); err != nil {
			return nil, err
		}
	}
	end := sim.Tick(r.spec.Base.NumTrans)
	if now := r.w.Engine().Now(); now < end {
		if err := r.w.RunFor(end - now); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", r.spec.Name, err)
		}
	}
	r.w.Finish()
	r.done = true

	res := &Result{
		Spec:            r.spec,
		Metrics:         *r.w.Metrics(),
		Proto:           r.w.Protocol().Stats(),
		Outcomes:        r.Outcomes(),
		FinalReputation: make(map[string]float64, len(r.labels)),
		Members:         r.w.PopulationSize(),
	}
	for label, pid := range r.labels {
		res.FinalReputation[label] = r.w.Reputation(pid)
	}
	return res, nil
}

// crash resolves the fault's target and crashes the leading fraction of
// its score-manager set, remembering the nodes for a later Recover.
func (r *Run) crash(f *Fault) error {
	target, err := r.resolve(f.ScoreManagersOf)
	if err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	sms := r.w.ScoreManagers(target)
	n := int(f.Fraction * float64(len(sms)))
	for _, node := range sms[:n] {
		r.w.Bus().Crash(node)
		r.crashed = append(r.crashed, node)
	}
	return nil
}

// inject runs one (possibly repeated) scripted arrival. The introducer is
// resolved once; each repeat advances the clock by SpacedBy before the
// AfterInjection hook observes it.
func (r *Run) inject(in *Injection, ph *Phase) error {
	introID, err := r.resolve(in.Introducer)
	if err != nil {
		return err
	}
	class, style, err := in.classStyle()
	if err != nil {
		return err
	}
	labels := in.labels()
	for i := 0; i < in.count(); i++ {
		var pid id.ID
		if in.DefectAfter > 0 {
			pid, err = r.w.InjectTraitor(style, introID, r.w.Engine().Now()+sim.Tick(in.DefectAfter))
		} else {
			pid, err = r.w.InjectArrival(class, style, introID)
		}
		if err != nil {
			return err
		}
		o := InjectionOutcome{Phase: ph.label(), Peer: pid, Introducer: introID, At: r.w.Engine().Now()}
		if labels != nil {
			o.Label = labels[i]
			r.labels[o.Label] = pid
		}
		if in.SpacedBy > 0 {
			if err := r.w.RunFor(sim.Tick(in.SpacedBy)); err != nil {
				return err
			}
		}
		r.outcomes = append(r.outcomes, o)
		if r.AfterInjection != nil {
			r.AfterInjection(o)
		}
	}
	return nil
}

// depart executes one departure action: resolve the victims, remove them
// in a single membership event, and bind any labels for later rejoins.
func (r *Run) depart(d *Departure) error {
	var victims []id.ID
	if d.ScoreManagersOf != nil {
		target, err := r.resolve(*d.ScoreManagersOf)
		if err != nil {
			return err
		}
		sms := r.w.ScoreManagers(target)
		frac := d.Fraction
		if frac == 0 {
			frac = 1
		}
		n := int(frac * float64(len(sms)))
		if n == 0 {
			n = 1 // any positive fraction departs at least one manager
		}
		for _, m := range sms[:n] {
			// Padded placements repeat managers; a manager may also be a
			// pending (not yet admitted) newcomer, which cannot depart.
			if !id.Contains(victims, m) && r.w.IsAdmitted(m) {
				victims = append(victims, m)
			}
		}
		if len(victims) == 0 {
			return fmt.Errorf("no admitted score manager of the selected member to depart")
		}
	} else {
		sel := Selector{}
		if d.Peers != nil {
			sel = *d.Peers
		}
		var err error
		victims, err = r.resolveMany(sel, d.count())
		if err != nil {
			return err
		}
	}
	if err := r.w.DepartBatch(victims, !d.Crash); err != nil {
		return err
	}
	for i, l := range d.labels() {
		r.labels[l] = victims[i]
	}
	return nil
}

// resolve picks the member a selector describes, at the current tick.
func (r *Run) resolve(sel Selector) (id.ID, error) {
	out, err := r.resolveMany(sel, 1)
	if err != nil {
		return id.ID{}, err
	}
	return out[0], nil
}

// resolveMany picks the first count members the selector matches, in
// admission order.
func (r *Run) resolveMany(sel Selector, count int) ([]id.ID, error) {
	if sel.Ref != "" {
		pid, ok := r.labels[sel.Ref]
		if !ok {
			return nil, fmt.Errorf("selector ref %q is not bound", sel.Ref)
		}
		if count != 1 {
			return nil, fmt.Errorf("selector ref %q names a single peer, need %d", sel.Ref, count)
		}
		return []id.ID{pid}, nil
	}
	admitted := r.w.AdmittedPeers()
	if len(admitted) == 0 {
		return nil, errors.New("no admitted members to select from")
	}
	var style peer.Style
	wantStyle := sel.Style != ""
	if wantStyle {
		s, err := parseStyle(sel.Style)
		if err != nil {
			return nil, err
		}
		style = s
	}
	var class peer.Class
	wantClass := sel.Class != ""
	if wantClass {
		c, err := parseClass(sel.Class)
		if err != nil {
			return nil, err
		}
		class = c
	}
	var out []id.ID
	for _, pid := range admitted {
		p, ok := r.w.Peer(pid)
		if !ok {
			continue
		}
		if wantStyle && p.Style != style {
			continue
		}
		if wantClass && p.Class != class {
			continue
		}
		if sel.MinRep > 0 && r.w.Reputation(pid) <= sel.MinRep {
			continue
		}
		out = append(out, pid)
		if len(out) == count {
			return out, nil
		}
	}
	if len(out) == 0 {
		if sel.FallbackFirst && count == 1 {
			return []id.ID{admitted[0]}, nil
		}
		return nil, fmt.Errorf("no member matches selector (style=%q class=%q minRep=%v)",
			sel.Style, sel.Class, sel.MinRep)
	}
	return nil, fmt.Errorf("only %d of %d members match selector (style=%q class=%q minRep=%v)",
		len(out), count, sel.Style, sel.Class, sel.MinRep)
}

// Result is a finished scenario run.
type Result struct {
	// Spec is the scenario that ran.
	Spec *Spec
	// Metrics are the world's collected metrics (including the emitted
	// time series).
	Metrics world.Metrics
	// Proto are the lending-protocol counters.
	Proto lending.Stats
	// Outcomes lists every scripted arrival.
	Outcomes []InjectionOutcome
	// FinalReputation maps each labelled peer to its end-of-run
	// reputation.
	FinalReputation map[string]float64
	// Members is the final community size.
	Members int
}

// series returns the named time series from the run's metrics.
func (res *Result) series(name string) (*metrics.Series, error) {
	switch name {
	case "coop":
		return res.Metrics.CoopCount, nil
	case "uncoop":
		return res.Metrics.UncoopCount, nil
	case "coop-reputation":
		return res.Metrics.CoopReputation, nil
	}
	return nil, fmt.Errorf("scenario: unknown series %q", name)
}

// CSV renders the series the spec's output section selected (all three
// by default), sharing one time axis.
func (res *Result) CSV() (string, error) {
	names := res.Spec.Output.Series
	if len(names) == 0 {
		names = []string{"coop", "uncoop", "coop-reputation"}
	}
	list := make([]*metrics.Series, len(names))
	for i, name := range names {
		s, err := res.series(name)
		if err != nil {
			return "", err
		}
		list[i] = s
	}
	return metrics.CSV(list...), nil
}

// Summary renders the run's headline numbers as text. A nameless spec
// is a plain configured world, not a scenario, and is titled as one.
func (res *Result) Summary() string {
	m := &res.Metrics
	cfg := res.Spec.Base
	var b strings.Builder
	title := fmt.Sprintf("scenario %q", res.Spec.Name)
	if res.Spec.Name == "" {
		title = "reputation lending simulation"
	}
	fmt.Fprintf(&b, "%s — seed %d, %d ticks, λ=%g, topology %s\n",
		title, cfg.Seed, cfg.NumTrans, cfg.Lambda, cfg.Topology)
	fmt.Fprintf(&b, "population:   %d peers (%d cooperative, %d uncooperative, %d founders)\n",
		res.Members, m.CoopInSystem, m.UncoopInSystem, m.Founders)
	fmt.Fprintf(&b, "arrivals:     %d cooperative, %d uncooperative\n", m.ArrivalsCoop, m.ArrivalsUncoop)
	fmt.Fprintf(&b, "admitted:     %d cooperative, %d uncooperative\n", m.AdmittedCoop, m.AdmittedUncoop)
	fmt.Fprintf(&b, "refused:      %d by introducer, %d for introducer reputation, %d no introducer, %d pending at end\n",
		m.RefusedSelectiveCoop+m.RefusedSelectiveUncoop,
		m.RefusedRepCoop+m.RefusedRepUncoop, m.RefusedNoIntroducer, m.Pending)
	fmt.Fprintf(&b, "transactions: %d served, %d denied\n", m.Served, m.Denied)
	fmt.Fprintf(&b, "success rate: %.4f (decisions by cooperative respondents)\n", m.SuccessRate())
	fmt.Fprintf(&b, "audits:       %d satisfied (stake+reward returned), %d forfeited\n",
		m.AuditsSatisfied, m.AuditsForfeited)
	fmt.Fprintf(&b, "protocol:     %d lends granted, %d duplicate-introduction punishments\n",
		res.Proto.Granted, res.Proto.DuplicateAttempts)
	if c := m.Churn; c.Departures+c.Crashes+c.Rejoins+c.Migrated+c.Wipeouts > 0 {
		fmt.Fprintf(&b, "churn:        %d departures, %d crashes, %d rejoins; %d records migrated, %d wiped out\n",
			c.Departures, c.Crashes, c.Rejoins, c.Migrated, c.Wipeouts)
	}
	if cfg.Churn.LeaseTTL > 0 {
		fmt.Fprintf(&b, "leases:       %d records evicted (TTL %d)\n", m.Churn.LeaseEvictions, cfg.Churn.LeaseTTL)
	}
	for _, c := range m.Cohorts {
		fmt.Fprintf(&b, "cohort %-14s %d arrivals, %d admitted, %d in system; %d departures, %d crashes, %d rejoins\n",
			fmt.Sprintf("%q:", c.Name), c.Arrivals, c.Admitted, c.InSystem, c.Departures, c.Crashes, c.Rejoins)
	}
	if cfg.StakeTimeout > 0 {
		c, p := m.Churn, res.Proto
		fmt.Fprintf(&b, "stakes:       %d refunded, %d stranded, %d expired records (timeout %d); mass %.2f staked = %.2f settled + %.2f refunded + %.2f stranded + %.2f pending\n",
			c.StakesRefunded, c.StakesStranded, c.StakesExpired, cfg.StakeTimeout,
			p.StakedMass, p.SettledMass, p.RefundedMass, p.StrandedMass, p.PendingMass)
	}
	if last, ok := m.CoopReputation.Last(); ok {
		fmt.Fprintf(&b, "reputation:   mean cooperative reputation %.4f at end\n", last.V)
	}
	for _, o := range res.Outcomes {
		if o.Label == "" {
			continue
		}
		fmt.Fprintf(&b, "actor %-14s injected at tick %d, final reputation %.4f\n",
			fmt.Sprintf("%q:", o.Label), o.At, res.FinalReputation[o.Label])
	}
	return b.String()
}
