package lending

// Batched-bus equivalence at the protocol layer: the coalesced
// SendBatch fan-out and the per-message reference loop must be
// observably identical through full lending rounds — randomized
// score-manager counts, delayed delivery (so frames sit in flight),
// injected loss, mid-wait crashes and departed-signer tombstones.
// Every trial scripts one scenario and replays it on both delivery
// modes; the complete observable transcript must match byte for byte.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/rng"
	"repro/internal/sim"
)

// equivScript is one scripted trial, drawn up front so both arms replay
// exactly the same schedule.
type equivScript struct {
	seed     uint64
	numSM    int
	delay    int     // bus delivery delay in ticks (0 = instant)
	loss     float64 // injected loss probability (0 = lossless)
	intros   []float64
	loans    []equivLoan
	crash    int // introducer index whose first SM crashes, -1 = none
	depart   int // introducer unregistered mid-flight, -1 = none
	departAt int64
}

type equivLoan struct {
	intro   int
	granted bool
	audit   bool
	twice   bool
}

func drawEquivScript(trial int) equivScript {
	src := rng.New(uint64(7000 + trial))
	s := equivScript{
		seed:   uint64(trial),
		numSM:  1 + src.Intn(4),
		delay:  src.Intn(3),
		crash:  -1,
		depart: -1,
	}
	if src.Bernoulli(0.3) {
		s.loss = 0.1
	}
	for i := 0; i < 3; i++ {
		s.intros = append(s.intros, 0.3+0.7*src.Float64())
	}
	for i, n := 0, 1+src.Intn(5); i < n; i++ {
		s.loans = append(s.loans, equivLoan{
			intro:   src.Intn(len(s.intros)),
			granted: src.Bernoulli(0.85),
			audit:   src.Bernoulli(0.6),
			twice:   src.Bernoulli(0.3),
		})
	}
	if src.Bernoulli(0.3) {
		s.crash = src.Intn(len(s.intros))
	}
	if src.Bernoulli(0.5) {
		s.depart = src.Intn(len(s.intros))
		// Either mid-wait (before the lend is signed) or just after the
		// envelopes went out — the latter verifies in-flight frames
		// against the departed signer's tombstone.
		if src.Bool() {
			s.departAt = 500
		} else {
			s.departAt = 1001
		}
	}
	return s
}

// runEquivArm replays a script on one delivery mode and renders the
// complete observable transcript.
func runEquivArm(t *testing.T, s equivScript, batched bool) string {
	t.Helper()
	p := params()
	p.NumSM = s.numSM
	h := newHarnessWith(t, p)
	h.proto.SetBatchedDelivery(batched)
	if s.delay > 0 {
		h.bus.SetDelay(h.engine, sim.Tick(s.delay))
	}
	if s.loss > 0 {
		h.bus.SetLoss(s.loss)
		// Same fault stream on both arms; the transport contract says the
		// batched path draws per-destination losses in Send-loop order.
		h.bus.SetFaultRand(rng.New(s.seed ^ 0xfa17))
	}

	type actor struct {
		pid id.ID
		sms []id.ID
	}
	var intros []actor
	for i, rep := range s.intros {
		pid, sms := h.addPeer(fmt.Sprintf("eq-intro%d", i), rep)
		intros = append(intros, actor{pid, sms})
	}
	var newcomers []id.ID
	for i, l := range s.loans {
		nc, _ := h.addPeer(fmt.Sprintf("eq-new%d", i), -1)
		newcomers = append(newcomers, nc)
		h.proto.Begin(nc, intros[l.intro].pid, l.granted)
	}
	h.engine.RunUntil(400)
	if s.crash >= 0 {
		h.bus.Crash(intros[s.crash].sms[0])
	}
	if s.depart >= 0 && s.departAt == 500 {
		h.engine.RunUntil(500)
		h.proto.UnregisterPeer(intros[s.depart].pid)
	}
	h.engine.RunUntil(1001)
	if s.depart >= 0 && s.departAt == 1001 {
		h.proto.UnregisterPeer(intros[s.depart].pid)
	}
	h.engine.RunUntil(2500)
	for i, l := range s.loans {
		if !l.audit {
			continue
		}
		h.proto.Audit(newcomers[i])
		if l.twice {
			h.proto.Audit(newcomers[i])
		}
	}
	h.engine.RunUntil(4000)

	var b strings.Builder
	for _, a := range h.admitted {
		fmt.Fprintf(&b, "admitted %s\n", a.Short())
	}
	for _, r := range h.refused {
		fmt.Fprintf(&b, "refused %v\n", r)
	}
	fmt.Fprintf(&b, "audits %v\nflagged %d\n", h.audits, len(h.flagged))
	fmt.Fprintf(&b, "proto %+v\nbus %+v\ntombs %d\n", h.proto.Stats(), h.bus.Stats(), h.proto.Tombstones())
	nodes := make([]id.ID, 0, len(h.net.stores))
	for n := range h.net.stores {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Less(nodes[j]) })
	for _, n := range nodes {
		st := h.net.stores[n]
		for _, subj := range st.SubjectIDs(nil) {
			v, _ := st.Query(subj)
			fmt.Fprintf(&b, "store %s %s %.12g\n", n.Short(), subj.Short(), v)
		}
	}
	return b.String()
}

func TestPropertyBatchedDeliveryEquivalence(t *testing.T) {
	var sawAdmit, sawTomb, sawDelay, sawLoss, sawWideFan bool
	for trial := 0; trial < 40; trial++ {
		s := drawEquivScript(trial)
		want := runEquivArm(t, s, true)
		got := runEquivArm(t, s, false)
		if want != got {
			t.Fatalf("trial %d (numSM=%d delay=%d loss=%v depart=%d@%d): delivery modes diverged\nbatched:\n%s\nunbatched:\n%s",
				trial, s.numSM, s.delay, s.loss, s.depart, s.departAt, want, got)
		}
		sawAdmit = sawAdmit || strings.Contains(want, "admitted ")
		sawTomb = sawTomb || !strings.Contains(want, "tombs 0\n")
		sawDelay = sawDelay || s.delay > 0
		sawLoss = sawLoss || s.loss > 0
		sawWideFan = sawWideFan || s.numSM >= 3
	}
	// The equivalence claim is only as strong as the schedules behind it.
	for name, ok := range map[string]bool{
		"an admission": sawAdmit, "a departed-signer tombstone": sawTomb,
		"delayed delivery": sawDelay, "injected loss": sawLoss, "a wide fan-out": sawWideFan,
	} {
		if !ok {
			t.Errorf("no trial exercised %s; the scripts have gone vacuous", name)
		}
	}
}
