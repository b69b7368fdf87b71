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

// Collusion reproduces the attack discussed in the paper's §1 (experiment
// A1 in DESIGN.md): "one member of a group of colluding peers enters the
// system and behaves honestly to accumulate reputation. It then recommends
// the other malicious peers into the group." The staking defence should
// bound the damage: every introduction costs the mole introAmt, the
// audited freeriders forfeit the lent reputation, and once the mole's
// reputation drops below minIntroRep its score managers refuse further
// lends.
type Collusion struct {
	// MoleRepBefore/After bracket the introduction spree.
	MoleRepBefore float64
	MoleRepAfter  float64
	// ColludersTried / Admitted / Refused count the spree.
	ColludersTried    int
	ColludersAdmitted int
	ColludersRefused  int
	// MaxColluderRep is the highest reputation any colluder holds at the
	// end — the residual damage.
	MaxColluderRep float64
	// MeanColluderRep is the average across admitted colluders.
	MeanColluderRep float64
	// TheoreticalBound is (moleRep − minIntroRep)/introAmt at spree start:
	// the staking argument's cap on consecutive unreturned lends.
	TheoreticalBound float64
}

// RunCollusion executes the scripted attack. Scale shrinks the honest
// community and the phase lengths.
func RunCollusion(opt Options) (*Collusion, error) {
	opt = opt.withDefaults()
	cfg := config.Default()
	cfg.Lambda = 0 // scripted arrivals only
	cfg.NumInit = 300
	cfg.NumTrans = 200_000 // upper bound; phases drive the clock
	cfg.WaitPeriod = 1000
	cfg.Seed = opt.SeedBase
	cfg = opt.apply(cfg)

	w, err := world.New(cfg)
	if err != nil {
		return nil, err
	}
	w.SetTelemetry(opt.Telemetry)
	w.Start()

	// Phase 1: the mole enters through a naive founder and behaves
	// honestly (class Cooperative — the attack is social, not behavioural,
	// until the clique is inside).
	founder := naiveMember(w)
	mole, err := w.InjectArrival(peer.Cooperative, peer.Naive, founder)
	if err != nil {
		return nil, err
	}
	// Let the mole accumulate reputation: a third of the configured run.
	if err := w.RunFor(sim.Tick(cfg.NumTrans / 3)); err != nil {
		return nil, err
	}

	out := &Collusion{MoleRepBefore: w.Reputation(mole)}
	out.TheoreticalBound = (out.MoleRepBefore - cfg.MinIntroRep) / cfg.IntroAmt

	// Phase 2: the mole introduces freeriding colluders, one per waiting
	// period (concurrent introductions would be caught and zeroed).
	var colluders []id.ID
	spree := int(out.TheoreticalBound)*3 + 6 // try well past the bound
	for i := 0; i < spree; i++ {
		c, err := w.InjectArrival(peer.Uncooperative, peer.Naive, mole)
		if err != nil {
			return nil, err
		}
		colluders = append(colluders, c)
		out.ColludersTried++
		if err := w.RunFor(sim.Tick(cfg.WaitPeriod + 1)); err != nil {
			return nil, err
		}
	}

	// Phase 3: let audits and reputation dynamics settle.
	if err := w.RunFor(sim.Tick(cfg.NumTrans / 3)); err != nil {
		return nil, err
	}

	out.MoleRepAfter = w.Reputation(mole)
	sum := 0.0
	for _, c := range colluders {
		if contains(w.AdmittedPeers(), c) {
			out.ColludersAdmitted++
			rep := w.Reputation(c)
			sum += rep
			if rep > out.MaxColluderRep {
				out.MaxColluderRep = rep
			}
		}
	}
	out.ColludersRefused = out.ColludersTried - out.ColludersAdmitted
	if out.ColludersAdmitted > 0 {
		out.MeanColluderRep = sum / float64(out.ColludersAdmitted)
	}
	return out, nil
}

// naiveMember returns a naive member to serve as a scripted entrant's
// introducer. In an all-selective founding community any founder will do
// (the scripted entrants behave cooperatively until inside, so a
// selective founder grants too).
func naiveMember(w *world.World) id.ID {
	for _, pid := range w.AdmittedPeers() {
		if p, ok := w.Peer(pid); ok && p.Style == peer.Naive {
			return pid
		}
	}
	return w.AdmittedPeers()[0]
}

func contains(ids []id.ID, x id.ID) bool {
	for _, v := range ids {
		if v == x {
			return true
		}
	}
	return false
}

// Name implements Report.
func (c *Collusion) Name() string { return "collusion" }

// Table renders the attack outcome.
func (c *Collusion) Table() string {
	t := &TextTable{
		Title:  "§1 collusion attack — staking bounds the damage",
		Header: []string{"quantity", "value"},
	}
	t.AddRow("mole reputation before spree", c.MoleRepBefore)
	t.AddRow("staking bound on consecutive lends", c.TheoreticalBound)
	t.AddRow("colluders tried", c.ColludersTried)
	t.AddRow("colluders admitted", c.ColludersAdmitted)
	t.AddRow("colluders refused (mole below floor)", c.ColludersRefused)
	t.AddRow("mole reputation after", c.MoleRepAfter)
	t.AddRow("max colluder reputation at end", c.MaxColluderRep)
	t.AddRow("mean colluder reputation at end", c.MeanColluderRep)
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\nexpected: admitted ≲ bound + recouped lends; colluder reputations decay toward 0 after audits\n")
	return b.String()
}

// CSV renders the summary row.
func (c *Collusion) CSV() string {
	var b strings.Builder
	b.WriteString("mole_rep_before,theoretical_bound,tried,admitted,refused,mole_rep_after,max_colluder_rep,mean_colluder_rep\n")
	fmt.Fprintf(&b, "%g,%g,%d,%d,%d,%g,%g,%g\n",
		c.MoleRepBefore, c.TheoreticalBound, c.ColludersTried, c.ColludersAdmitted,
		c.ColludersRefused, c.MoleRepAfter, c.MaxColluderRep, c.MeanColluderRep)
	return b.String()
}
