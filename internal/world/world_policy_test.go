package world

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/peer"
	"repro/internal/sim"
)

// runWithPolicy executes a small open-admission run under one baseline
// bootstrap rule.
func runWithPolicy(t *testing.T, pol baseline.Policy) *World {
	t.Helper()
	c := smallCfg()
	c.RequireIntroductions = false
	c.NumTrans = 10000
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	w.SetPolicy(pol)
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestComplaintsBasedAdmitsAtFullTrust(t *testing.T) {
	w := runWithPolicy(t, baseline.ComplaintsBased{})
	m := w.Metrics()
	// Every freerider gets in and starts fully trusted, so freeriders
	// extract real service — the vulnerability lending fixes.
	if m.AdmittedUncoop == 0 {
		t.Skip("no uncooperative arrivals this seed")
	}
	if m.ServedToUncoop == 0 {
		t.Fatal("fully-trusted freeriders extracted no service")
	}
}

func TestPositiveOnlyFreezesNewcomersOut(t *testing.T) {
	w := runWithPolicy(t, baseline.PositiveOnly{})
	m := w.Metrics()
	if m.AdmittedCoop == 0 {
		t.Fatal("no admissions")
	}
	// Newcomers start at 0: a cooperative newcomer can only ever be
	// served if chosen as respondent first. Its requester-side service is
	// strangled relative to mid-spectrum.
	mid := runWithPolicy(t, baseline.MidSpectrum{})
	if w.Metrics().Served >= mid.Metrics().Served {
		t.Fatalf("positive-only (%d served) not below mid-spectrum (%d served)",
			w.Metrics().Served, mid.Metrics().Served)
	}
}

func TestFixedCreditGrantsExactAmount(t *testing.T) {
	c := smallCfg()
	c.RequireIntroductions = false
	c.Lambda = 0.05
	c.NumTrans = 500 // catch a newcomer before feedback moves it
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	w.SetPolicy(baseline.FixedCredit{})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pid := range w.AdmittedPeers() {
		p, _ := w.Peer(pid)
		if p.JoinedAt == 0 || p.Completed > 0 {
			continue // founder, or feedback already moved the value
		}
		found = true
		if rep := w.Reputation(pid); rep < 0.09 || rep > 0.11 {
			t.Fatalf("fixed credit granted %v, want 0.1", rep)
		}
	}
	if !found {
		t.Skip("no untouched newcomer this seed")
	}
}

func TestInjectTraitorLifecycle(t *testing.T) {
	c := smallCfg()
	c.Lambda = 0
	c.NumTrans = 30000
	c.AuditTrans = 5
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()

	// Find a naive member so the grant is certain.
	var entry = w.AdmittedPeers()[0]
	for _, pid := range w.AdmittedPeers() {
		if p, _ := w.Peer(pid); p.Style == peer.Naive {
			entry = pid
			break
		}
	}
	defectAt := sim.Tick(8000)
	traitor, err := w.InjectTraitor(peer.Selective, entry, defectAt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunFor(sim.Tick(c.WaitPeriod + 1)); err != nil {
		t.Fatal(err)
	}
	p, ok := w.Peer(traitor)
	if !ok || p.DefectAt != defectAt {
		t.Fatal("traitor not configured")
	}
	if err := w.RunFor(defectAt - w.Engine().Now()); err != nil {
		t.Fatal(err)
	}
	atDefect := w.Reputation(traitor)
	if atDefect < 0.5 {
		t.Fatalf("traitor failed to earn standing before defection: %v", atDefect)
	}
	if err := w.RunFor(20000); err != nil {
		t.Fatal(err)
	}
	if after := w.Reputation(traitor); after >= atDefect {
		t.Fatalf("traitor reputation did not fall after defection: %v -> %v", atDefect, after)
	}
}

func TestInjectTraitorUnknownIntroducer(t *testing.T) {
	w, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var ghost [20]byte
	ghost[0] = 1
	if _, err := w.InjectTraitor(peer.Naive, ghost, 100); err == nil {
		t.Fatal("unknown introducer accepted")
	}
}
