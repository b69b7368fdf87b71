package world

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// departedPeers lists the peers currently offline but eligible to
// rejoin, in ascending identifier order.
func departedPeers(w *World) []id.ID {
	return w.slotIDsSorted(func(s *worldSlot) bool { return s.departed != nil })
}

func churnTestConfig() config.Config {
	c := config.Default()
	c.NumInit = 40
	c.NumTrans = 1_000_000 // upper bound; the tests drive the clock
	c.Lambda = 0.02
	c.WaitPeriod = 200
	c.SampleEvery = 500
	c.Seed = 7
	c.Churn.Migrate = true
	return c
}

// replicationOf counts the distinct current score managers of pid whose
// stores hold pid's record, and the distinct manager count itself.
func replicationOf(t *testing.T, w *World, pid id.ID) (known, managers int) {
	t.Helper()
	sms, err := w.ring.ScoreManagers(pid, w.cfg.NumSM)
	if err != nil {
		t.Fatalf("placement for %s: %v", pid.Short(), err)
	}
	var seen []id.ID
	for _, m := range sms {
		if id.Contains(seen, m) {
			continue
		}
		seen = append(seen, m)
		managers++
		if st, ok := w.storeAt(m); ok && st.Known(pid) {
			known++
		}
	}
	return known, managers
}

// TestChurnConservesOpinionMass is the churn ledger property: across a
// randomized sequence of departures, crashes, batch replica-crashes,
// rejoins and ordinary workload ticks, every tracked peer's reputation
// record stays fully replicated on its *current* score-manager set —
// state migration repairs every arc change — except for peers whose
// entire replica set died in a single event, each of which is recorded
// in the wipeout counter. Opinion mass (the ledger of live replica
// records) is conserved modulo exactly those counted wipeouts.
func TestChurnConservesOpinionMass(t *testing.T) {
	c := churnTestConfig()
	// Record leases run alongside: an eviction finalises an offline peer
	// exactly like a wipeout finalises a record, dropping it from the
	// tracked set, so the ledger must balance with both active.
	c.Churn.LeaseTTL = 1_500
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	if err := w.RunFor(2_000); err != nil {
		t.Fatal(err)
	}

	src := rng.New(42)
	randomAdmitted := func() *peer.Peer {
		return w.admittedPeers[src.Intn(len(w.admittedPeers))]
	}
	wipeoutsSeen := w.m.Churn.Wipeouts
	leasesSeen := w.m.Churn.LeaseEvictions

	check := func(step int) {
		t.Helper()
		tracked := make([]id.ID, 0, len(w.admittedPeers))
		for _, p := range w.admittedPeers {
			tracked = append(tracked, p.ID)
		}
		tracked = append(tracked, departedPeers(w)...)
		for _, pid := range tracked {
			if w.WipedOut(pid) {
				continue // the counted exception: every replica died at once
			}
			known, managers := replicationOf(t, w, pid)
			if known != managers {
				t.Fatalf("step %d: peer %s replicated on %d of %d current managers (mass lost without a wipeout)",
					step, pid.Short(), known, managers)
			}
		}
		if w.m.Churn.Wipeouts < wipeoutsSeen {
			t.Fatalf("step %d: wipeout counter went backwards", step)
		}
		wipeoutsSeen = w.m.Churn.Wipeouts
		if w.m.Churn.LeaseEvictions < leasesSeen {
			t.Fatalf("step %d: lease-eviction counter went backwards", step)
		}
		leasesSeen = w.m.Churn.LeaseEvictions
	}

	for step := 0; step < 250; step++ {
		switch op := src.Intn(10); {
		case op < 4: // ordinary workload: transactions, arrivals, reports
			if err := w.RunFor(50); err != nil {
				t.Fatal(err)
			}
		case op < 6: // graceful departure
			if len(w.admittedPeers) > w.minPopulation() {
				if err := w.Depart(randomAdmitted().ID); err != nil {
					t.Fatal(err)
				}
			}
		case op < 8: // abrupt crash
			if len(w.admittedPeers) > w.minPopulation() {
				if err := w.Crash(randomAdmitted().ID); err != nil {
					t.Fatal(err)
				}
			}
		case op < 9: // batch crash of one peer's whole replica set
			if len(w.admittedPeers) > w.minPopulation()+w.cfg.NumSM {
				target := randomAdmitted().ID
				var victims []id.ID
				for _, m := range w.ScoreManagers(target) {
					if !id.Contains(victims, m) && w.IsAdmitted(m) && m != target {
						victims = append(victims, m)
					}
				}
				if len(victims) > 0 {
					if err := w.DepartBatch(victims, false); err != nil {
						t.Fatal(err)
					}
				}
			}
		default: // rejoin someone
			if offline := departedPeers(w); len(offline) > 0 {
				if err := w.Rejoin(offline[src.Intn(len(offline))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(step)
		if w.Err() != nil {
			t.Fatalf("step %d: world failed: %v", step, w.Err())
		}
	}
	if wipeoutsSeen == 0 {
		t.Fatal("the batch replica-crash op never produced a wipeout; the property was not exercised")
	}
	if w.m.Churn.Migrated == 0 {
		t.Fatal("no records migrated; the handoff protocol was not exercised")
	}
	if w.m.Churn.LeaseEvictions == 0 {
		t.Fatal("no record leases expired; the eviction path was not exercised")
	}
}

// TestRejoinRestoresReputation pins the headline lifecycle promise: a
// departed peer's reputation is held by its (migrating) score managers
// and resumes exactly on rejoin, even across membership changes during
// the downtime.
func TestRejoinRestoresReputation(t *testing.T) {
	w, err := New(churnTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	if err := w.RunFor(3_000); err != nil {
		t.Fatal(err)
	}
	victim := w.admittedPeers[0]
	before := w.Reputation(victim.ID)
	if before <= 0 {
		t.Fatal("victim has no reputation to preserve")
	}
	if err := w.Depart(victim.ID); err != nil {
		t.Fatal(err)
	}
	if w.IsAdmitted(victim.ID) || !w.IsDeparted(victim.ID) {
		t.Fatal("departure did not detach the peer")
	}
	// Churn the victim's managers while it is offline: its records must
	// ride the migrations.
	for i := 0; i < 3; i++ {
		sms, err := w.ring.ScoreManagers(victim.ID, w.cfg.NumSM)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sms {
			if w.IsAdmitted(m) && len(w.admittedPeers) > w.minPopulation() {
				if err := w.Depart(m); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	after := w.Reputation(victim.ID)
	if math.Abs(after-before) > 0.05 {
		t.Fatalf("offline reputation drifted from %v to %v under manager churn", before, after)
	}
	if err := w.Rejoin(victim.ID); err != nil {
		t.Fatal(err)
	}
	if !w.IsAdmitted(victim.ID) || w.IsDeparted(victim.ID) {
		t.Fatal("rejoin did not readmit the peer")
	}
	if got := w.Reputation(victim.ID); got != after {
		t.Fatalf("rejoin changed the reputation from %v to %v (must resume, not reset)", after, got)
	}
	// The peer transacts again and its standing keeps evolving.
	if err := w.RunFor(2_000); err != nil {
		t.Fatal(err)
	}
}

// TestDepartureLifecycleErrors pins the API contract of the lifecycle
// calls.
func TestDepartureLifecycleErrors(t *testing.T) {
	w, err := New(churnTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ghost := id.HashString("nobody")
	if err := w.Depart(ghost); err == nil {
		t.Fatal("departing a non-member must fail")
	}
	if err := w.Rejoin(ghost); err == nil {
		t.Fatal("rejoining a never-departed peer must fail")
	}
	pid := w.admittedPeers[0].ID
	if err := w.DepartBatch([]id.ID{pid, pid}, true); err == nil {
		t.Fatal("duplicate departure in one batch must fail")
	}
	if err := w.Depart(pid); err != nil {
		t.Fatal(err)
	}
	if err := w.Depart(pid); err == nil {
		t.Fatal("departing a departed peer must fail")
	}
	if err := w.Rejoin(pid); err != nil {
		t.Fatal(err)
	}
	if err := w.Rejoin(pid); err == nil {
		t.Fatal("rejoining an admitted peer must fail")
	}
}

// TestDepartureClockDrivesChurn runs the Poisson departure clock with
// rejoins end to end and checks the lifecycle counters and the
// population floor.
func TestDepartureClockDrivesChurn(t *testing.T) {
	c := churnTestConfig()
	c.Lambda = 0.01
	c.Churn.Mu = 0.05
	c.Churn.CrashFrac = 0.3
	c.Churn.RejoinProb = 0.5
	c.Churn.DowntimeMean = 300
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(20_000); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.Churn.Departures == 0 || m.Churn.Crashes == 0 {
		t.Fatalf("departure clock idle: %+v", m.Churn)
	}
	if m.Churn.Rejoins == 0 {
		t.Fatalf("no rejoins despite RejoinProb=0.5: %+v", m.Churn)
	}
	if got := w.PopulationSize(); got < w.minPopulation() {
		t.Fatalf("population %d fell below the floor %d", got, w.minPopulation())
	}
	if got, want := w.PopulationSize(), len(w.AdmittedPeers()); got != want {
		t.Fatalf("population bookkeeping diverged: %d vs %d", got, want)
	}
	if w.topo.Len() != w.PopulationSize() {
		t.Fatalf("topology tracks %d peers, population is %d", w.topo.Len(), w.PopulationSize())
	}
}

// TestApplyDeltaMuStartsAndStopsDepartures mirrors the λ delta test for
// the departure clock.
func TestApplyDeltaMuStartsAndStopsDepartures(t *testing.T) {
	c := churnTestConfig()
	c.Lambda = 0
	c.Churn.Migrate = true
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(3_000); err != nil {
		t.Fatal(err)
	}
	if got := w.Metrics().Churn.Departures + w.Metrics().Churn.Crashes; got != 0 {
		t.Fatalf("churn before any delta: %d departures", got)
	}
	mu := 0.05
	if err := w.ApplyDelta(Delta{Mu: &mu}); err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(3_000); err != nil {
		t.Fatal(err)
	}
	after := w.Metrics().Churn.Departures + w.Metrics().Churn.Crashes
	if after == 0 {
		t.Fatal("Mu delta did not start the departure clock")
	}
	zero := 0.0
	if err := w.ApplyDelta(Delta{Mu: &zero}); err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(3_000); err != nil {
		t.Fatal(err)
	}
	if got := w.Metrics().Churn.Departures + w.Metrics().Churn.Crashes; got != after {
		t.Fatalf("departures kept firing after Mu=0: %d -> %d", after, got)
	}
}

// TestSessionClockDepartsFounders runs the session-length model: every
// admission arms a session clock, so even a closed community churns.
func TestSessionClockDepartsFounders(t *testing.T) {
	c := churnTestConfig()
	c.Lambda = 0
	c.Churn.SessionMean = 2_000
	c.Churn.SessionDist = "pareto"
	c.Churn.RejoinProb = 1
	c.Churn.DowntimeMean = 500
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(10_000); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.Churn.Departures+m.Churn.Crashes == 0 {
		t.Fatal("session clocks never fired")
	}
	if m.Churn.Rejoins == 0 {
		t.Fatal("no rejoins despite RejoinProb=1")
	}
}

// TestNullSignWorldRuns pins the null-signer opt-out end to end: a whole
// churning run admits peers and migrates records without a single real
// Ed25519 operation, stays deterministic, and — the documented
// guarantee — produces metrics identical to the signed run of the same
// configuration (signing changes cost, never outcomes).
func TestNullSignWorldRuns(t *testing.T) {
	c := churnTestConfig()
	c.NumTrans = 12_000
	c.Churn.Mu = 0.02
	c.Churn.RejoinProb = 0.5
	c.Churn.DowntimeMean = 500
	run := func(nullSign bool) Metrics {
		cfg := c
		cfg.NullSign = nullSign
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return *w.Metrics()
	}
	a := run(true)
	if a.AdmittedCoop == 0 {
		t.Fatal("null-sign world admitted nobody")
	}
	if a.Churn.Departures+a.Churn.Crashes == 0 {
		t.Fatal("null-sign world never churned")
	}
	b := run(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("null-sign runs diverged:\n%+v\n%+v", a.Churn, b.Churn)
	}
	signed := run(false)
	if !reflect.DeepEqual(a, signed) {
		t.Fatalf("null-sign run diverged from the signed run of the same config:\nnull   %+v\nsigned %+v",
			a.Churn, signed.Churn)
	}
}

// TestPermanentDeparturesDoNotAccrete is the churn leak regression: a
// process departure that draws no rejoin is final, so the world's
// departed table may not grow with it, its reputation records must not
// keep riding migrations, and — with the stake clock armed — its stake
// record must fall to the TTL instead of accreting one per departed
// newcomer.
func TestPermanentDeparturesDoNotAccrete(t *testing.T) {
	c := churnTestConfig()
	c.NullSign = true
	c.NumTrans = 15_000
	c.Churn.Mu = 0.05
	c.Churn.RejoinProb = 0 // every process departure is permanent
	c.StakeTimeout = 2_000 // stake records of offline peers expire under this TTL
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.Churn.Departures+m.Churn.Crashes < 100 {
		t.Fatalf("leak regression needs real churn, got %+v", m.Churn)
	}
	if got := len(departedPeers(w)); got != 0 {
		t.Fatalf("%d permanently departed peers retained for rejoin", got)
	}
	// Departed peers' records were dropped: total present slots track the
	// live population (numSM replicas each) plus bounded orphan slack,
	// not the cumulative departure count.
	slots := 0
	for ord := range w.slots {
		if st := w.slots[ord].store; st != nil {
			slots += st.Subjects()
		}
	}
	if max := (w.PopulationSize() + int(m.Pending)) * c.NumSM * 2; slots > max {
		t.Fatalf("stores hold %d present slots for %d live peers (departed records accreting)",
			slots, w.PopulationSize())
	}
	// Stake records under the TTL: one per live introduced member, plus
	// at most the departures of the trailing TTL window whose expiry has
	// not fired yet — never the cumulative departure count.
	if m.Churn.StakesExpired == 0 {
		t.Fatalf("no stake records expired despite permanent churn: %+v", m.Churn)
	}
	ttlWindow := int(float64(c.StakeTimeout)*c.Churn.Mu) + 1 // E[departures per TTL]
	if got, max := w.Protocol().StakeRecords(), w.PopulationSize()+int(m.Pending)+4*ttlWindow; got > max {
		t.Fatalf("%d stake records for %d live peers (TTL window %d): departed newcomers' stakes accreting",
			got, w.PopulationSize(), ttlWindow)
	}
	// With every departure permanent, the slots holding state track the
	// live population (plus wiped markers), not the cumulative arrival
	// count, and the handle table holds one entry per peer the run created.
	held := len(w.slotIDsSorted(holdsState))
	if max := (w.PopulationSize()+int(m.Pending))*2 + int(m.Churn.Wipeouts); held > max {
		t.Fatalf("%d slots hold state for %d live peers (state of departed peers accreting)",
			held, w.PopulationSize())
	}
	if got, max := w.handles.Len(), m.Founders+m.ArrivalsCoop+m.ArrivalsUncoop; int64(got) > max {
		t.Fatalf("handle table holds %d identities, more than the %d founders and arrivals", got, max)
	}
}

// TestLeaseEvictionsDropStaleRecords runs the record lease end to end:
// under churn whose downtime mostly outlasts the TTL, offline peers'
// records are evicted instead of riding migrations forever. Evicted
// peers lose rejoin eligibility for good, short downtimes still rejoin,
// and a world without the lease evicts nothing.
func TestLeaseEvictionsDropStaleRecords(t *testing.T) {
	c := churnTestConfig()
	c.NumTrans = 15_000
	c.Churn.Mu = 0.05
	c.Churn.RejoinProb = 1.0
	c.Churn.DowntimeMean = 4_000 // most downtimes outlast the lease
	c.Churn.LeaseTTL = 600
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	tr := attachLog(w)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.Churn.LeaseEvictions == 0 {
		t.Fatalf("no leases evicted despite long downtimes: %+v", m.Churn)
	}
	if m.Churn.Rejoins == 0 {
		t.Fatalf("no rejoins beat the lease; both outcomes must be exercised: %+v", m.Churn)
	}
	if got := tr.Count(telemetry.LeaseEvicted); got != m.Churn.LeaseEvictions {
		t.Fatalf("trace recorded %d lease evictions, counter says %d", got, m.Churn.LeaseEvictions)
	}
	// Every eviction finalised its peer: whoever is still departed is
	// inside the TTL window (plus events not yet fired), never the
	// cumulative count of peers whose downtime ran long.
	ttlWindow := int(float64(c.Churn.LeaseTTL)*c.Churn.Mu) + 1
	if got, max := len(departedPeers(w)), 4*ttlWindow+4; got > max {
		t.Fatalf("%d peers still rejoin-eligible (TTL window %d): evictions are not finalising", got, ttlWindow)
	}
	// Evicted records are gone from every store: present slots track the
	// live population, not the eviction count.
	slots := 0
	for ord := range w.slots {
		if st := w.slots[ord].store; st != nil {
			slots += st.Subjects()
		}
	}
	if max := (w.PopulationSize() + int(m.Pending) + len(departedPeers(w))) * c.NumSM * 2; slots > max {
		t.Fatalf("stores hold %d present slots for %d live peers (evicted records accreting)",
			slots, w.PopulationSize())
	}
	// The zero TTL keeps today's semantics: no evictions, ever.
	c2 := churnTestConfig()
	c2.NumTrans = 5_000
	c2.Churn.Mu = 0.05
	c2.Churn.RejoinProb = 1.0
	c2.Churn.DowntimeMean = 4_000
	w2, err := New(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w2.Metrics().Churn.LeaseEvictions; got != 0 {
		t.Fatalf("world without a lease evicted %d records", got)
	}
}

// TestStakeClockLifecycleWorld runs the stake timeout end to end on a
// churning world: stakes of orphaned introductions refund, offline
// records expire, the ledger conserves, and a world without the clock
// counts nothing.
func TestStakeClockLifecycleWorld(t *testing.T) {
	c := churnTestConfig()
	c.NumTrans = 15_000
	c.Churn.Mu = 0.04
	c.Churn.CrashFrac = 0.3
	c.Churn.RejoinProb = 0.3
	c.Churn.DowntimeMean = 1_000
	c.StakeTimeout = 2_500
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.Churn.StakesRefunded == 0 {
		t.Fatalf("no stakes refunded under churn: %+v", m.Churn)
	}
	if m.Churn.StakesExpired == 0 {
		t.Fatalf("no stake records expired under churn: %+v", m.Churn)
	}
	ps := w.Protocol().Stats()
	if ps.StakedMass <= 0 {
		t.Fatal("nothing staked")
	}
	if diff := ps.StakedMass - (ps.SettledMass + ps.RefundedMass + ps.StrandedMass + ps.PendingMass); math.Abs(diff) > 1e-6 {
		t.Fatalf("stake mass not conserved: %+v (off by %v)", ps, diff)
	}

	// The control: the same world without the clock counts no stake
	// lifecycle activity at all.
	c.StakeTimeout = 0
	w0, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Run(); err != nil {
		t.Fatal(err)
	}
	if ch := w0.Metrics().Churn; ch.StakesRefunded != 0 || ch.StakesExpired != 0 {
		t.Fatalf("timeout-disabled world ran the stake clock: %+v", ch)
	}
	if ps0 := w0.Protocol().Stats(); ps0.RefundedMass != 0 {
		t.Fatalf("timeout-disabled world refunded mass: %+v", ps0)
	}
}

// TestIncrementalSamplingMatchesFullWalk pins the dirty-tracked mean
// against the definitionally correct full walk at every sample point of
// a churning run.
func TestIncrementalSamplingMatchesFullWalk(t *testing.T) {
	c := churnTestConfig()
	c.NumTrans = 8_000
	c.Churn.Mu = 0.03
	c.Churn.CrashFrac = 0.3
	c.Churn.RejoinProb = 0.5
	c.Churn.DowntimeMean = 400
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	for tick := int64(0); tick < c.NumTrans; tick += c.SampleEvery {
		if err := w.RunFor(500); err != nil {
			t.Fatal(err)
		}
		w.flushDirtyRep()
		sum, n := 0.0, 0
		for _, p := range w.admittedPeers {
			if p.Class != peer.Cooperative {
				continue
			}
			sum += w.Reputation(p.ID)
			n++
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		incr := 0.0
		if w.m.CoopInSystem > 0 {
			incr = w.repSum / float64(w.m.CoopInSystem)
		}
		if int64(n) != w.m.CoopInSystem {
			t.Fatalf("tick %d: coop count %d, incremental tracker says %d", tick, n, w.m.CoopInSystem)
		}
		if math.Abs(mean-incr) > 1e-9 {
			t.Fatalf("tick %d: incremental mean %v, full walk %v", tick, incr, mean)
		}
	}
}

// TestHandoffCaptureAllocatesNothing pins the handoff capture's buffer
// reuse: once warmed up, capturing a graceful leaver's records writes
// into the world's record and snapshot buffers and allocates nothing.
func TestHandoffCaptureAllocatesNothing(t *testing.T) {
	w, err := New(churnyCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(2_000); err != nil {
		t.Fatal(err)
	}
	var batch []leaver
	for _, p := range w.admittedPeers {
		if st, ok := w.storeAt(p.ID); ok && st.Subjects() > 0 {
			batch = []leaver{{pid: p.ID, graceful: true}}
			break
		}
	}
	if batch == nil {
		t.Fatal("no admitted peer hosts a record")
	}
	if records := w.captureHandoff(batch); len(records) == 0 {
		t.Fatal("warm-up captured no record")
	}
	if got := testing.AllocsPerRun(20, func() { w.captureHandoff(batch) }); got != 0 {
		t.Fatalf("captureHandoff allocated %v objects per call, want 0", got)
	}
}
