// Workload-layer integration: nonstationary arrival programs via
// Lewis–Shedler thinning, the behavioural-cohort mixer, and trace
// replay/record. The layer owns two dedicated randomness streams —
// wkArrivalRand for the candidate arrival clock and its thinning
// accepts, cohortRand for the cohort mixer and workload-path
// class/style draws — so switching a run between the classic Poisson
// generator and a workload block never perturbs any other stream.
// Per-peer session plans draw from stateless keyed streams (see
// workload.PlanSource), which is what lets checkpoint-resume and trace
// replay re-derive every plan exactly.
package world

import (
	"repro/internal/peer"
	"repro/internal/sim"
	"repro/internal/workload"
)

// replaying reports whether a recorded trace, not a generator, drives
// this run's arrivals.
func (w *World) replaying() bool {
	return w.cfg.Workload.Replaying()
}

// workloadAssigning reports whether generated arrivals go through the
// workload path (cohort mixer, plan draws) instead of the classic
// behaviour-stream draws.
func (w *World) workloadAssigning() bool {
	return w.cfg.Workload.Active() && !w.replaying()
}

// SetWorkloadRecorder attaches a recorder that captures every workload
// event (arrival, departure, rejoin) of the run for later replay.
// Attaching one changes no randomness draw and no output: recording is
// an observability sink, not simulation state. Attach before the clock
// advances past tick 0 (Start only schedules; no event has fired yet).
func (w *World) SetWorkloadRecorder(r *workload.Recorder) { w.wkRecorder = r }

// scheduleNextCandidate arms the next candidate arrival of the
// Lewis–Shedler thinning chain: candidates fire at the program's peak
// rate and are accepted at fire time with probability rate(now)/peak,
// which realises the exact nonstationary Poisson process. The chain
// reuses the classic "arrival" event and its generation guard, so
// checkpointing and delta re-arms treat both generators identically.
func (w *World) scheduleNextCandidate() {
	max := w.wkProgram.MaxRate()
	if max <= 0 {
		return
	}
	gen := w.arrivalGen
	w.arrClock += w.wkArrivalRand.Exp(max)
	at := sim.Tick(w.arrClock)
	if at <= w.engine.Now() {
		// Same tick-grid clamp and clock re-anchor as the classic chain
		// (see scheduleNextArrival).
		at = w.engine.Now() + 1
		w.arrClock = float64(at)
	}
	w.engine.Schedule(at, w.kinds.arrival, genPayload{Gen: gen})
}

// thinnedArrival runs the accept step of the thinning chain: the
// candidate becomes a real arrival iff u·peak < rate(now). The strict
// inequality makes a zero-rate window reject every candidate and a
// peak-rate window accept every one (u < 1 always).
func (w *World) thinnedArrival() {
	max := w.wkProgram.MaxRate()
	if w.wkArrivalRand.Float64()*max < w.wkProgram.Rate(float64(w.engine.Now())) {
		w.handleArrival()
	}
}

// handleWorkloadArrival creates one generated arrival through the
// workload layer: the cohort mixer picks the peer's cohort, class and
// style draw from the cohort-resolved fractions on the cohort stream,
// and the cohort's session plan is derived from the peer's keyed plan
// stream.
func (w *World) handleWorkloadArrival() {
	wl := w.cfg.Workload
	var cohort *workload.Cohort
	if len(w.wkWeights) > 0 {
		cohort = &wl.Cohorts[w.cohortRand.Pick(w.wkWeights)]
	}
	frac := w.cfg.FracUncoop
	if cohort != nil && cohort.Uncoop != nil {
		frac = *cohort.Uncoop
	}
	class := peer.AssignArrivalClass(frac, w.cohortRand)
	style := peer.AssignStyle(class, w.cfg.FracNaive, w.cohortRand)
	p := w.newPeer(w.newPeerID(), class, style)
	p.PlanOrdinal = w.seq
	if cohort != nil {
		p.Cohort = cohort.Name
		params := cohort.Params(w.cfg.Churn)
		plan := workload.DrawPlan(params, workload.PlanSource(w.wkPlanSeed, p.PlanOrdinal, p.PlanSeq))
		p.PlanSeq++
		p.Plan = &plan
	}
	w.finishArrival(p)
}

// cohortStats returns the per-cohort counter row for the named cohort,
// creating it on first sight so rows appear in generated-run order
// (which is also replay order). Nil for the empty name, so classic
// peers and founders never grow a row.
func (w *World) cohortStats(name string) *CohortStats {
	if name == "" {
		return nil
	}
	for i := range w.m.Cohorts {
		if w.m.Cohorts[i].Name == name {
			return &w.m.Cohorts[i]
		}
	}
	w.m.Cohorts = append(w.m.Cohorts, CohortStats{Name: name})
	return &w.m.Cohorts[len(w.m.Cohorts)-1]
}

// redrawPlan draws the peer's next session plan (the rejoin path: a
// returning peer starts a fresh visit under fresh draws) from its keyed
// plan stream.
func (w *World) redrawPlan(p *peer.Peer) {
	plan := workload.DrawPlan(p.Plan.SessionParams, workload.PlanSource(w.wkPlanSeed, p.PlanOrdinal, p.PlanSeq))
	p.PlanSeq++
	p.Plan = &plan
}

// sessionExtension draws the extra session length granted when the
// population floor blocks a session departure. Plan-governed peers draw
// from their keyed stream; classic peers from the churn process.
func (w *World) sessionExtension(p *peer.Peer) float64 {
	if p.Plan == nil {
		return w.churnProc.SessionLength()
	}
	s := workload.DrawSession(p.Plan.SessionParams, workload.PlanSource(w.wkPlanSeed, p.PlanOrdinal, p.PlanSeq))
	p.PlanSeq++
	return s
}

// planCrashes resolves whether this peer's departure is an abrupt
// crash: from its pre-drawn plan when governed, from the churn stream
// otherwise.
func (w *World) planCrashes(p *peer.Peer) bool {
	if p.Plan == nil {
		return w.churnProc.Crashes()
	}
	return p.Plan.Crash
}

// planRejoins resolves whether (and when) this departing peer returns.
func (w *World) planRejoins(p *peer.Peer) (after float64, ok bool) {
	if p.Plan == nil {
		return w.churnProc.Rejoins()
	}
	if p.Plan.Rejoin > 0 {
		return p.Plan.Rejoin, true
	}
	return 0, false
}

// peerDemand returns the relative transaction-demand rate of the peer's
// cohort (1 for uncohorted peers).
func (w *World) peerDemand(p *peer.Peer) float64 {
	if p.Cohort == "" || w.cfg.Workload == nil {
		return 1
	}
	for i := range w.cfg.Workload.Cohorts {
		if w.cfg.Workload.Cohorts[i].Name == p.Cohort {
			return w.cfg.Workload.Cohorts[i].DemandRate()
		}
	}
	return 1
}

// demandTries bounds the rejection-sampling loop of pickRequester: a
// run of rejections beyond this falls back to the last draw, keeping
// the per-transaction draw count bounded.
const demandTries = 8

// pickRequester draws the requester index for one transaction. Without
// demand weighting this is the classic single uniform draw; with it,
// bounded rejection sampling accepts a peer with probability
// demand/maxDemand, realising per-cohort demand rates.
func (w *World) pickRequester(n int) *peer.Peer {
	p := w.admittedPeers[w.workloadRand.Intn(n)]
	if !w.wkDemandOn {
		return p
	}
	for try := 0; try < demandTries; try++ {
		d := w.peerDemand(p)
		if d >= w.wkMaxDemand || w.workloadRand.Float64()*w.wkMaxDemand < d {
			return p
		}
		p = w.admittedPeers[w.workloadRand.Intn(n)]
	}
	return p
}

// scheduleReplay arms the replay chain at the idx-th trace event,
// skipping non-arrival records (departures and rejoins in a trace are
// provenance, not commands: the replayed run's own session plans
// reproduce them). Each pending replay event carries its index so a
// checkpoint can restore the chain exactly.
func (w *World) scheduleReplay(idx int64) {
	tr := w.cfg.Workload.Trace
	for idx < int64(len(tr)) && tr[idx].Op != workload.OpArrival {
		idx++
	}
	w.wkReplayNext = idx
	if idx >= int64(len(tr)) {
		return
	}
	at := sim.Tick(tr[idx].At)
	if at <= w.engine.Now() {
		at = w.engine.Now() + 1
	}
	w.engine.Schedule(at, w.kinds.replay, replayPayload{Idx: idx})
}

// replayEvent re-drives the trace event the payload indexes and arms the
// next one.
func (w *World) replayEvent(payload any) {
	if w.err != nil {
		return
	}
	idx := payload.(replayPayload).Idx
	w.handleReplayArrival(w.cfg.Workload.Trace[idx])
	w.scheduleReplay(idx + 1)
}

// handleReplayArrival re-drives one recorded arrival. Class and style
// come verbatim from the trace when recorded; a trace without them (a
// hand-written one) draws live from the cohort stream. The recorded
// plan, when present, is installed as drawn — the peer's keyed plan
// stream continues at seq 1, so pop-floor extensions and rejoin redraws
// of the replayed run still match the recorded one.
func (w *World) handleReplayArrival(ev workload.Event) {
	var class peer.Class
	switch ev.Class {
	case workload.ClassCooperative:
		class = peer.Cooperative
	case workload.ClassUncooperative:
		class = peer.Uncooperative
	default:
		class = peer.AssignArrivalClass(w.cfg.FracUncoop, w.cohortRand)
	}
	var style peer.Style
	switch ev.Style {
	case workload.StyleNaive:
		style = peer.Naive
	case workload.StyleSelective:
		style = peer.Selective
	default:
		style = peer.AssignStyle(class, w.cfg.FracNaive, w.cohortRand)
	}
	p := w.newPeer(w.newPeerID(), class, style)
	p.Cohort = ev.Cohort
	p.PlanOrdinal = w.seq
	if ev.Plan != nil {
		plan := *ev.Plan
		p.Plan = &plan
		p.PlanSeq = 1
	}
	w.finishArrival(p)
}
