package experiments

import (
	"fmt"
	"strings"

	"repro/internal/asciiplot"
	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// The paper's axes, highest rate first as in Figure 2's legend.
var (
	Fig2Lambdas     = []float64{0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001}
	Fig3Fractions   = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	Fig45Amounts    = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45}
	Fig6Percentages = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
)

// growth is Figure 1's setup, the base of most sweeps: Table 1 defaults
// at λ = 0.1 over 50 000 time units.
func growth() config.Config {
	c := config.Default()
	c.Lambda = 0.1
	c.NumTrans = 50_000
	return c
}

// Per-replica quantities the columns average.
func coopIn(r Replica) float64         { return float64(r.Metrics.CoopInSystem) }
func uncoopIn(r Replica) float64       { return float64(r.Metrics.UncoopInSystem) }
func admittedUncoop(r Replica) float64 { return float64(r.Metrics.AdmittedUncoop) }
func successRate(r Replica) float64    { return r.Metrics.SuccessRate() }

// refusedRep counts entries refused because the introducer's reputation
// was below the floor.
func refusedRep(r Replica) float64 {
	return float64(r.Metrics.RefusedRepCoop + r.Metrics.RefusedRepUncoop)
}

// finalRep is the mean cooperative reputation at the end of the run.
func finalRep(r Replica) float64 {
	last, _ := r.Metrics.CoopReputation.Last()
	return last.V
}

// uncoopPerCoop is uncooperative admissions per cooperative admission,
// 0 when no cooperative peer was admitted.
func uncoopPerCoop(_ *Point, rs []Replica) float64 {
	coop := meanOf(rs, func(r Replica) float64 { return float64(r.Metrics.AdmittedCoop) })
	if coop > 0 {
		return meanOf(rs, admittedUncoop) / coop
	}
	return 0
}

// counts are the population and refusal columns Figures 4 and 6 share.
func counts() []Column {
	return []Column{
		mean("coop", "coop", coopIn).lined("coop"),
		mean("uncoop", "uncoop", uncoopIn).lined("uncoop"),
		mean("refused: introducer rep", "refused_introducer_rep", refusedRep).lined("refused-rep"),
		mean("refused: uncoop (selective)", "refused_uncoop_selective", func(r Replica) float64 {
			return float64(r.Metrics.RefusedSelectiveUncoop)
		}).lined("refused-uncoop"),
	}
}

// fig1 reproduces Figure 1, "Growth in Number of uncooperative vs
// cooperative peers": λ=0.1, 50 000 time units, random and scale-free
// topologies, everything else at Table 1 defaults. The paper's findings:
// the number of uncooperative peers grows linearly with the cooperative
// count but with slope well below the arriving ratio of 1/3, and the
// growth is independent of topology.
func fig1(opt Options) (*Sweep, error) {
	s := &Sweep{
		name: "fig1",
		Columns: []Column{
			mean("final coop", "", coopIn),
			mean("final uncoop", "", uncoopIn),
			{Header: "uncoop admitted per coop admitted", of: uncoopPerCoop},
		},
		Points: axis([]string{string(topology.Random), string(topology.PowerLaw)}, func(kind string) config.Config {
			c := opt.apply(growth())
			c.Topology = topology.Kind(kind)
			return c
		}),
		tables: []table{{
			title: "Figure 1 — uncooperative vs cooperative peers (λ=0.1)",
			key:   "topology",
			note:  "paper: linear growth, slope ≪ 1/3 (≈0.125), topology-independent\n",
		}},
		series: []seriesOf{
			{"coop-", func(r Replica) *metrics.Series { return r.Metrics.CoopCount }},
			{"uncoop-", func(r Replica) *metrics.Series { return r.Metrics.UncoopCount }},
		},
		csv:  fig1CSV,
		plot: fig1Plot,
	}
	return s.run(opt)
}

// fig1CSV renders the plotted series: uncooperative count against
// cooperative count, per topology (the figure's axes).
func fig1CSV(s *Sweep) string {
	var b strings.Builder
	b.WriteString("coop_random,uncoop_random,coop_powerlaw,uncoop_powerlaw\n")
	r, p := s.Points[0].series, s.Points[1].series
	for i := range r[0].Points {
		fmt.Fprintf(&b, "%g,%g,%g,%g\n", r[0].Points[i].V, r[1].Points[i].V, p[0].Points[i].V, p[1].Points[i].V)
	}
	return b.String()
}

// fig1Plot renders Figure 1's axes: uncooperative count against
// cooperative count, one glyph per topology.
func fig1Plot(s *Sweep) string {
	var lines []*metrics.Series
	for _, p := range s.Points {
		coop, uncoop := p.series[0], p.series[1]
		line := &metrics.Series{Name: "uncoop-" + fmt.Sprint(p.Key)}
		prev := int64(-1)
		for i := range coop.Points {
			x := int64(coop.Points[i].V)
			if x <= prev {
				continue // the x axis (coop count) must be monotone
			}
			prev = x
			line.Append(x, uncoop.Points[i].V)
		}
		lines = append(lines, line)
	}
	return asciiplot.Render(asciiplot.Options{
		Title:  "uncooperative vs cooperative peers",
		XLabel: "cooperative peers",
		YLabel: "uncooperative peers",
	}, lines...)
}

// successRateSweep reproduces the §4.1 success-rate comparison
// (experiment T2 in DESIGN.md): the proportion of serve/deny decisions
// taken by cooperative peers that are correct, with the introduction
// requirement on versus off. The paper reports ≈96–97% in both
// configurations and concludes "the introducer requirement is compatible
// with the ROCQ reputation management scheme". The uncooperative
// admissions show what the equal success rates buy: with lending far
// fewer uncooperative peers are inside.
func successRateSweep(opt Options) (*Sweep, error) {
	with := opt.apply(config.Default()) // Table 1 defaults: λ=0.01 over 500 000 ticks
	without := with
	without.RequireIntroductions = false
	s := &Sweep{
		name:   "successrate",
		keyCSV: "configuration",
		Columns: []Column{
			stat("success rate", "success_rate", successRate),
			{Header: "±95% CI", CSV: "ci95", of: func(_ *Point, rs []Replica) float64 {
				acc := statOf(rs, successRate)
				return acc.CI95()
			}},
			mean("uncoop admitted", "uncoop_admitted", admittedUncoop),
		},
		Points: []Point{
			{Key: "introductions required", csvKey: "with_introductions", cfg: with},
			// "All nodes were allowed in the system": open admission at
			// the mid-spectrum default.
			{Key: "open admission", csvKey: "without_introductions", cfg: without, policy: baseline.MidSpectrum{}, seed: 1},
		},
		tables: []table{{
			title: "§4.1 — decision success rate, with vs without the introduction requirement",
			key:   "configuration",
			note:  "paper: ≈96–97% in both configurations — the introducer requirement does not degrade ROCQ\n",
		}},
	}
	return s.run(opt)
}

// RunFig2 reproduces Figure 2, "Reputation of Cooperative Peers with
// Time", for the given λ values (nil = Fig2Lambdas): the mean reputation
// of cooperative peers sampled every 5000 time units over a 500 000-tick
// run, one curve per arrival rate. The paper's findings: the average
// stays roughly constant for all moderate λ; at high rates
// (λ ∈ {0.1, 0.2}) the system is briefly overwhelmed — reputations
// deplete as members lend to the entrant flood, then recover to a steady
// state.
func RunFig2(lambdas []float64, opt Options) (*Sweep, error) {
	if lambdas == nil {
		lambdas = Fig2Lambdas
	}
	opt = opt.withDefaults()
	// Each point's curve is its one averaged series.
	curves := func(s *Sweep) []*metrics.Series {
		out := make([]*metrics.Series, len(s.Points))
		for i, p := range s.Points {
			out[i] = p.series[0]
		}
		return out
	}
	s := &Sweep{
		name: "fig2",
		Columns: []Column{
			{Header: "min over run", of: func(p *Point, _ []Replica) float64 {
				low := 1.0
				for _, pt := range p.series[0].Points {
					if pt.V < low {
						low = pt.V
					}
				}
				return low
			}},
			{Header: "final", of: func(p *Point, _ []Replica) float64 {
				last, _ := p.series[0].Last()
				return last.V
			}},
		},
		Points: axis(lambdas, func(lam float64) config.Config {
			c := config.Default()
			c.Lambda = lam
			c.NumTrans = 500_000
			return opt.apply(c)
		}),
		tables: []table{{
			title: "Figure 2 — mean reputation of cooperative peers over time",
			key:   "lambda",
			note:  "paper: flat and high for λ ≤ 0.05; dip then recovery for λ ∈ {0.1, 0.2}\n",
		}},
		series: []seriesOf{{"rep-lambda-", func(r Replica) *metrics.Series { return r.Metrics.CoopReputation }}},
		csv:    func(s *Sweep) string { return metrics.CSV(curves(s)...) },
		plot: func(s *Sweep) string {
			return asciiplot.Render(asciiplot.Options{
				Title:  "mean cooperative reputation over time, per arrival rate",
				XLabel: "time units",
				YLabel: "reputation",
			}, curves(s)...)
		},
	}
	return s.run(opt)
}

// RunFig3 reproduces Figure 3, "Number of Cooperative and Uncooperative
// Peers in System with Proportion of Introducers that are Naive", over
// the given fractions (nil = Fig3Fractions): λ=0.1, 50 000 time units,
// sweeping fracNaive from 0 to 1. The paper's findings: as the naive
// proportion grows, cooperative membership falls slightly and
// uncooperative membership rises steeply; even at fracNaive=0 some
// uncooperative peers enter (the selective error rate), and even at
// fracNaive=1 fewer than the full uncooperative stream enters, because
// naive introducers go broke lending to freeriders — the refusals for
// introducer reputation track that "going broke" effect.
func RunFig3(fractions []float64, opt Options) (*Sweep, error) {
	if fractions == nil {
		fractions = Fig3Fractions
	}
	opt = opt.withDefaults()
	s := &Sweep{
		name:   "fig3",
		keyCSV: "frac_naive",
		Columns: []Column{
			mean("coop in system", "coop", coopIn).lined("coop"),
			mean("uncoop in system", "uncoop", uncoopIn).lined("uncoop"),
			mean("refused (introducer rep)", "refused_introducer_rep", refusedRep),
		},
		Points: axis(fractions, func(f float64) config.Config {
			c := growth()
			c.FracNaive = f
			return opt.apply(c)
		}),
		tables: []table{{
			title: "Figure 3 — population vs proportion of naive introducers (λ=0.1)",
			key:   "fracNaive",
			note:  "paper: coop ≈4200→3800 falling, uncoop ≈105→1000 rising; uncoop >0 at fracNaive=0 (selective error)\n",
			chart: &chart{"population vs proportion of naive introducers (x = fracNaive × 100)", "naive fraction ×100", "peers", 100},
		}},
	}
	return s.run(opt)
}

// RunFig45 reproduces Figures 4 and 5 with one sweep over the given lent
// amounts (nil = Fig45Amounts): λ=0.1, 50 000 time units, with the reward
// fixed at 20% of the lent amount. Figure 4 plots absolute counts —
// cooperative peers, uncooperative peers, entries refused because the
// introducer lacked reputation ("Entry Refused due to Introducer
// Reputation"), and entries refused to uncooperative peers by selective
// introducers ("Entry Refused to Uncooperative Peer"). Figure 5 plots the
// cooperative/uncooperative proportions of the resulting population.
//
// The paper's findings: admissions stay flat for introAmt ≤ 0.15 and fall
// beyond as lending drains too much reputation from the system;
// reputation-floor refusals grow with introAmt while selective refusals
// stay flat; the coop/uncoop proportions barely change — raising introAmt
// beyond ~0.15 keeps peers out without distinguishing good from bad.
func RunFig45(amounts []float64, opt Options) (*Sweep, error) {
	if amounts == nil {
		amounts = Fig45Amounts
	}
	opt = opt.withDefaults()
	share := func(header, csv string, f func(Replica) float64) Column {
		return Column{Header: header, CSV: csv, of: func(_ *Point, rs []Replica) float64 {
			if total := meanOf(rs, coopIn) + meanOf(rs, uncoopIn); total > 0 {
				return meanOf(rs, f) / total
			}
			return 0
		}}
	}
	s := &Sweep{
		name:   "fig4+fig5",
		keyCSV: "intro_amt",
		Columns: append(counts(),
			share("prop coop", "prop_coop", coopIn).lined("prop-coop"),
			share("prop uncoop", "prop_uncoop", uncoopIn).lined("prop-uncoop"),
		),
		Points: axis(amounts, func(amt float64) config.Config { return opt.apply(growth().WithIntroAmt(amt)) }),
		tables: []table{{
			title: "Figure 4 — counts vs amount of reputation lent (λ=0.1, reward = 0.2·introAmt)",
			key:   "introAmt",
			cols:  []int{0, 1, 2, 3},
			note:  "paper: admissions flat for introAmt ≤ 0.15 then falling; rep-floor refusals rising; selective refusals flat\n",
			chart: &chart{"counts vs reputation lent (x = introAmt × 100)", "introAmt ×100", "peers", 100},
		}, {
			title: "Figure 5 — proportions vs amount of reputation lent",
			key:   "introAmt",
			cols:  []int{4, 5},
			note:  "paper: proportions roughly constant across the sweep\n",
			chart: &chart{"proportions vs reputation lent (x = introAmt × 100)", "introAmt ×100", "proportion", 100},
		}},
	}
	return s.run(opt)
}

// RunFig6 reproduces Figure 6, "Number of Cooperative and Uncooperative
// Peers in System with Percentage of Freeriding New Entrants", over the
// given percentages (nil = Fig6Percentages): λ=0.1, 50 000 time units,
// sweeping the uncooperative fraction of arrivals from 0% to 100%. The
// paper's findings: cooperative membership falls almost linearly (fewer
// cooperative peers even try to enter), while uncooperative membership
// stays bounded — selective introducers refuse most of them, and the
// naive/uncooperative introducers that let them in lose the staked
// reputation and go broke, capping further admissions.
func RunFig6(percentages []float64, opt Options) (*Sweep, error) {
	if percentages == nil {
		percentages = Fig6Percentages
	}
	opt = opt.withDefaults()
	s := &Sweep{
		name:    "fig6",
		keyCSV:  "pct_uncoop",
		Columns: counts(),
		Points: axis(percentages, func(pct float64) config.Config {
			c := growth()
			c.FracUncoop = pct / 100
			return opt.apply(c)
		}),
		tables: []table{{
			title: "Figure 6 — population vs percentage of freeriding new entrants (λ=0.1)",
			key:   "% uncoop arrivals",
			note:  "paper: coop falls ≈ linearly (≈5400→500); uncoop bounded ≈ ≤1000, saturating as lenders go broke\n",
			chart: &chart{"population vs percentage of freeriding entrants", "% uncooperative arrivals", "peers", 1},
		}},
	}
	return s.run(opt)
}
