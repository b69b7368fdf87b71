package world

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sim"
	"repro/internal/topology"
)

// slotIDsSorted returns, in ascending identifier order, the ids whose
// slot satisfies the predicate.
func (w *World) slotIDsSorted(pred func(*worldSlot) bool) []id.ID {
	var out []id.ID
	for _, h := range w.handles.SortedByID() {
		if int(h) < len(w.slots) && pred(&w.slots[h]) {
			pid, _ := w.handles.ID(h)
			out = append(out, pid)
		}
	}
	return out
}

// holdsState reports whether any per-peer field of the slot is set.
func holdsState(s *worldSlot) bool {
	return s.pr != nil || s.store != nil || s.departed != nil || s.sm != nil || len(s.smDeps) > 0 ||
		s.wiped || s.admitted || s.dirty || s.rep != 0 || s.inFlight
}

// cached reports whether the slot holds a cached placement.
func cached(s *worldSlot) bool { return s.sm != nil }

// smallCfg returns a configuration scaled down for fast integration tests:
// 60 founders, 8000 ticks, brisk arrivals.
func smallCfg() config.Config {
	c := config.Default()
	c.NumInit = 60
	c.NumTrans = 8000
	c.Lambda = 0.05
	c.WaitPeriod = 100
	c.SampleEvery = 1000
	c.Seed = 7
	return c
}

func TestNewValidatesConfig(t *testing.T) {
	c := config.Default()
	c.NumSM = 0
	if _, err := New(c); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestNewPeerIDMatchesFormattedName pins newPeerID to the name it has
// always hashed, "peer-<seq>-seed-<seed>" as fmt formats it, over every
// digit count of seq up to 10,000 and at the ends of the seed range, and
// checks that naming a peer allocates nothing.
func TestNewPeerIDMatchesFormattedName(t *testing.T) {
	for _, seed := range []uint64{0, 1, 10, math.MaxUint64} {
		w := &World{cfg: config.Config{Seed: seed}}
		for seq := 1; seq <= 10_000; seq++ {
			if got, want := w.newPeerID(), id.HashString(fmt.Sprintf("peer-%d-seed-%d", seq, seed)); got != want {
				t.Fatalf("seed %d, seq %d: newPeerID = %s, want %s", seed, seq, got.Short(), want.Short())
			}
		}
	}
	w := &World{cfg: config.Config{Seed: math.MaxUint64}}
	if allocs := testing.AllocsPerRun(100, func() { w.newPeerID() }); allocs != 0 {
		t.Fatalf("newPeerID allocates %v objects a call, want 0", allocs)
	}
}

// TestNewPeerFields pins the world's peer constructor: identity and
// behaviour fields as given, a fresh opinion book, zero run state.
func TestNewPeerFields(t *testing.T) {
	w, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	p := w.newPeer(id.FromUint64(9), peer.Uncooperative, peer.Naive)
	if p.ID != id.FromUint64(9) || p.Class != peer.Uncooperative || p.Style != peer.Naive {
		t.Fatal("constructor fields wrong")
	}
	if p.Opinions == nil || p.Opinions.Partners() != 0 {
		t.Fatal("opinion book not initialised")
	}
	if p.Completed != 0 || p.Audited {
		t.Fatal("zero-state fields wrong")
	}
}

func TestFoundersSetup(t *testing.T) {
	c := smallCfg()
	c.Lambda = 0 // no arrivals
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if w.PopulationSize() != c.NumInit {
		t.Fatalf("population = %d, want %d", w.PopulationSize(), c.NumInit)
	}
	if w.Ring().Size() != c.NumInit {
		t.Fatalf("ring size = %d", w.Ring().Size())
	}
	m := w.Metrics()
	if m.Founders != int64(c.NumInit) || m.CoopInSystem != int64(c.NumInit) || m.UncoopInSystem != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	// All founders fully reputed.
	for pid, p := range founders(w) {
		if p.Class != peer.Cooperative {
			t.Fatal("founder not cooperative")
		}
		if rep := w.Reputation(pid); math.Abs(rep-c.FounderRep) > 1e-9 {
			t.Fatalf("founder reputation %v, want %v", rep, c.FounderRep)
		}
	}
}

// founders enumerates the world's peers (all founders when Lambda=0).
func founders(w *World) map[[20]byte]*peer.Peer {
	out := map[[20]byte]*peer.Peer{}
	for i := 0; i < w.PopulationSize(); i++ {
		pid := w.admittedPeers[i].ID
		p, _ := w.Peer(pid)
		out[pid] = p
	}
	return out
}

func TestFoundersHaveMixedStyles(t *testing.T) {
	c := smallCfg()
	c.NumInit = 200
	c.Lambda = 0
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	naive, selective := 0, 0
	for _, p := range founders(w) {
		if p.Style == peer.Naive {
			naive++
		} else {
			selective++
		}
	}
	// fracNaive = 0.3 of 200 — allow wide slack for a single draw.
	if naive < 30 || naive > 95 {
		t.Fatalf("naive founders = %d of 200, want ≈60", naive)
	}
	if naive+selective != 200 {
		t.Fatal("style counts do not add up")
	}
}

func TestClosedCommunityStaysHealthy(t *testing.T) {
	// No arrivals: founders transact among themselves; reputations must
	// stay high and decisions near-perfect.
	c := smallCfg()
	c.Lambda = 0
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.Served == 0 {
		t.Fatal("no transactions completed")
	}
	if sr := m.SuccessRate(); sr < 0.95 {
		t.Fatalf("success rate %v in an all-cooperative community", sr)
	}
	if last, ok := m.CoopReputation.Last(); !ok || last.V < 0.9 {
		t.Fatalf("cooperative reputation fell to %v", last.V)
	}
}

func TestArrivalsAdmittedThroughLending(t *testing.T) {
	c := smallCfg()
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.ArrivalsCoop+m.ArrivalsUncoop == 0 {
		t.Fatal("no arrivals happened")
	}
	if m.AdmittedCoop == 0 {
		t.Fatal("no cooperative newcomer was admitted")
	}
	// Accounting: every arrival is admitted, refused, pending, or was
	// turned away for lack of an introducer.
	arrivals := m.ArrivalsCoop + m.ArrivalsUncoop
	accounted := m.AdmittedCoop + m.AdmittedUncoop +
		m.RefusedSelectiveCoop + m.RefusedSelectiveUncoop +
		m.RefusedRepCoop + m.RefusedRepUncoop +
		m.RefusedNoIntroducer + m.Pending
	if accounted != arrivals {
		t.Fatalf("arrival accounting: %d arrivals, %d accounted (%+v)", arrivals, accounted, m)
	}
	// Population = founders + admitted.
	wantPop := int64(c.NumInit) + m.AdmittedCoop + m.AdmittedUncoop
	if int64(w.PopulationSize()) != wantPop {
		t.Fatalf("population %d, want %d", w.PopulationSize(), wantPop)
	}
	if m.CoopInSystem+m.UncoopInSystem != wantPop {
		t.Fatalf("class counts %d+%d != %d", m.CoopInSystem, m.UncoopInSystem, wantPop)
	}
}

func TestSelectiveIntroducersFilterUncooperative(t *testing.T) {
	// With every member selective and no errors, no uncooperative peer
	// can enter.
	c := smallCfg()
	c.FracNaive = 0
	c.ErrSel = 0
	c.NumTrans = 12000
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.AdmittedUncoop != 0 {
		t.Fatalf("%d uncooperative peers admitted through all-selective, zero-error introducers", m.AdmittedUncoop)
	}
	if m.ArrivalsUncoop > 0 && m.RefusedSelectiveUncoop == 0 && m.Pending == 0 {
		t.Fatalf("uncooperative arrivals neither refused nor pending: %+v", m)
	}
	if m.AdmittedCoop == 0 {
		t.Fatal("cooperative arrivals should still be admitted")
	}
}

func TestAllNaiveAdmitsUncooperative(t *testing.T) {
	c := smallCfg()
	c.FracNaive = 1
	c.FracUncoop = 0.5
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.AdmittedUncoop == 0 {
		t.Fatal("all-naive introducers admitted no uncooperative peers")
	}
}

func TestUncooperativeReputationsStayLow(t *testing.T) {
	c := smallCfg()
	c.FracNaive = 1 // let freeriders in
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := 0; i < w.PopulationSize(); i++ {
		pid := w.admittedPeers[i].ID
		p, _ := w.Peer(pid)
		if p.Class != peer.Uncooperative {
			continue
		}
		// Only judge peers that have been in the system a while.
		if int64(p.JoinedAt) > c.NumTrans/2 {
			continue
		}
		checked++
		if rep := w.Reputation(pid); rep > 0.45 {
			t.Fatalf("established uncooperative peer holds reputation %v", rep)
		}
	}
	if checked == 0 {
		t.Skip("no established uncooperative peers this seed")
	}
}

func TestAuditsFire(t *testing.T) {
	c := smallCfg()
	c.FracNaive = 1
	c.NumTrans = 20000
	c.AuditTrans = 5 // audit quickly at this small scale
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.AuditsSatisfied+m.AuditsForfeited == 0 {
		t.Fatal("no admission audits fired")
	}
	ps := w.Protocol().Stats()
	if ps.AuditsSatisfied != m.AuditsSatisfied || ps.AuditsForfeited != m.AuditsForfeited {
		t.Fatalf("audit counters disagree: world %+v protocol %+v", m, ps)
	}
}

func TestBaselinePolicyPath(t *testing.T) {
	c := smallCfg()
	c.RequireIntroductions = false
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	w.SetPolicy(baseline.MidSpectrum{})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	arrivals := m.ArrivalsCoop + m.ArrivalsUncoop
	if arrivals == 0 {
		t.Fatal("no arrivals")
	}
	// Open admission: everyone gets in, nobody is refused or pending.
	if m.AdmittedCoop+m.AdmittedUncoop != arrivals {
		t.Fatalf("open admission refused someone: %+v", m)
	}
	if m.Pending != 0 || m.RefusedSelectiveCoop+m.RefusedSelectiveUncoop+m.RefusedRepCoop+m.RefusedRepUncoop != 0 {
		t.Fatalf("open admission produced refusals: %+v", m)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() Metrics {
		w, err := New(smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return *w.Metrics()
	}
	a, b := run(), run()
	if a.Served != b.Served || a.AdmittedCoop != b.AdmittedCoop ||
		a.AdmittedUncoop != b.AdmittedUncoop || a.CorrectDecisions != b.CorrectDecisions {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	av, bv := a.CoopReputation.Values(), b.CoopReputation.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("reputation series diverged at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	c1, c2 := smallCfg(), smallCfg()
	c2.Seed = 8
	w1, _ := New(c1)
	w2, _ := New(c2)
	if err := w1.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	if w1.Metrics().Served == w2.Metrics().Served &&
		w1.Metrics().AdmittedCoop == w2.Metrics().AdmittedCoop &&
		w1.Metrics().CorrectDecisions == w2.Metrics().CorrectDecisions {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestRandomTopologyRuns(t *testing.T) {
	c := smallCfg()
	c.Topology = topology.Random
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Metrics().Served == 0 {
		t.Fatal("random topology run served nothing")
	}
}

func TestSeriesSampling(t *testing.T) {
	c := smallCfg()
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	wantSamples := int(c.NumTrans/c.SampleEvery) + 1 // includes tick 0
	if len(m.CoopCount.Points) != wantSamples {
		t.Fatalf("coop count series has %d samples, want %d", len(m.CoopCount.Points), wantSamples)
	}
	if len(m.CoopReputation.Points) != wantSamples {
		t.Fatalf("reputation series has %d samples, want %d", len(m.CoopReputation.Points), wantSamples)
	}
	// Population series must be non-decreasing (peers never leave).
	vals := m.CoopCount.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatal("cooperative population decreased")
		}
	}
}

func TestSuccessRateWithFreeriders(t *testing.T) {
	// The headline §4.1 property at test scale: success rate of the
	// decision mechanism stays high with a cooperative majority.
	c := smallCfg()
	c.NumTrans = 20000
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if sr := w.Metrics().SuccessRate(); sr < 0.7 {
		t.Fatalf("success rate %v too low", sr)
	}
}

func TestEngineAccessors(t *testing.T) {
	w, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if w.Engine() == nil || w.Bus() == nil || w.Ring() == nil || w.Protocol() == nil {
		t.Fatal("nil accessor")
	}
	if w.Config().NumInit != smallCfg().NumInit {
		t.Fatal("config accessor wrong")
	}
	if w.Engine().Now() != 0 {
		t.Fatal("fresh world clock not at 0")
	}
	var _ sim.Tick = w.Engine().Now()
}

// TestRunPathFailureFailsWorldInsteadOfPanicking fails a run from inside
// an event handler, the way every run-path failure reaches World.fail:
// RunFor must return the error and Err report it, the clock must stop at
// the failing event instead of running on to the deadline, and the failed
// world must refuse to keep simulating.
func TestRunPathFailureFailsWorldInsteadOfPanicking(t *testing.T) {
	w, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	boom := w.engine.Handle("boom", func(any) { w.fail(errors.New("world: boom")) })
	w.engine.Schedule(500, boom, nil)
	err = w.RunFor(1_000)
	if err == nil {
		t.Fatal("a failing event did not fail the run")
	}
	if w.Err() == nil {
		t.Fatal("Err() nil after a failed run")
	}
	if w.Err().Error() != err.Error() {
		t.Fatalf("RunFor error %q != Err() %q", err, w.Err())
	}
	if now := w.Engine().Now(); now != 500 {
		t.Fatalf("clock at tick %d after the failure at tick 500", now)
	}
	if err2 := w.RunFor(100); err2 == nil {
		t.Fatal("failed world resumed simulating")
	}
}
