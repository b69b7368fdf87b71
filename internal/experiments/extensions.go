package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/workload"
)

// The extension sweeps' axes, control first.
var (
	// AblationRewardRatios is the swept reward as a fraction of introAmt.
	AblationRewardRatios = []float64{0, 0.2, 0.5, 1.0}
	// AblationAuditTrans is the swept audit trigger.
	AblationAuditTrans = []int{5, 20, 80}
	// DefaultChurnMus are the swept departure rates: none (the paper's
	// model), mild, half the arrival rate, and parity with arrivals.
	DefaultChurnMus = []float64{0, 0.02, 0.05, 0.1}
	// DefaultSessionDists are the swept session distributions.
	DefaultSessionDists = []string{churn.SessionExponential, churn.SessionUniform, churn.SessionPareto}
	// DefaultWorkloadPoints are the swept workloads ("steady" is the
	// Poisson control).
	DefaultWorkloadPoints = []string{"steady", workload.PresetDiurnal, workload.PresetFlashCrowd, workload.PresetHeavytailCohorts}
)

// The churn columns the churn, session and workload sweeps share.
var (
	finalPop = mean("final pop", "final_pop", func(r Replica) float64 {
		return float64(r.Metrics.CoopInSystem + r.Metrics.UncoopInSystem)
	})
	departed = mean("departed", "departed", func(r Replica) float64 {
		return float64(r.Metrics.Churn.Departures + r.Metrics.Churn.Crashes)
	})
	rejoins     = mean("rejoins", "rejoins", func(r Replica) float64 { return float64(r.Metrics.Churn.Rejoins) })
	migrated    = mean("migrated", "migrated", func(r Replica) float64 { return float64(r.Metrics.Churn.Migrated) })
	wipeouts    = mean("wipeouts", "wipeouts", func(r Replica) float64 { return float64(r.Metrics.Churn.Wipeouts) })
	successCol  = stat("success rate", "success_rate", successRate)
	meanCoopRep = stat("mean coop rep", "mean_coop_rep", finalRep)
)

// churnColumns are the columns of the churn and session sweeps.
func churnColumns() []Column {
	return []Column{finalPop, departed, rejoins, migrated, wipeouts, successCol, meanCoopRep}
}

// policyPoints runs lending on cfg at the experiment's own seed, then
// each policy with introductions off at sweep seed i+1.
func policyPoints(cfg config.Config, policies []baseline.Policy) []Point {
	points := []Point{{Key: "reputation-lending", cfg: cfg}}
	cfg.RequireIntroductions = false
	for i, pol := range policies {
		points = append(points, Point{Key: pol.Name(), cfg: cfg, policy: pol, seed: i + 1})
	}
	return points
}

// baselines reproduces the §1 comparison as an ablation (experiment A2 in
// DESIGN.md): the admission alternatives the paper surveys — complaints-
// based (newcomer fully trusted), positive-only (newcomer frozen out),
// mid-spectrum, fixed free credit — against reputation lending, all on the
// same workload. The qualitative claim to check: lending admits the fewest
// uncooperative peers per cooperative peer admitted, without freezing
// cooperative newcomers out. The final cooperative reputation is the
// freeze-out check: positive-only admits everyone but at reputation 0, so
// cooperative newcomers stay frozen.
func baselines(opt Options) (*Sweep, error) {
	c := config.Default()
	c.Lambda = 0.05 // brisker arrivals make admission policy differences visible
	c.NumTrans = 100_000
	s := &Sweep{
		name:   "baselines",
		keyCSV: "policy",
		Columns: []Column{
			mean("coop admitted", "coop_admitted", func(r Replica) float64 { return float64(r.Metrics.AdmittedCoop) }),
			mean("uncoop admitted", "uncoop_admitted", admittedUncoop),
			{Header: "uncoop per coop", CSV: "uncoop_per_coop", of: uncoopPerCoop},
			stat("success rate", "success_rate", successRate),
			mean("final coop reputation", "final_coop_reputation", finalRep),
		},
		Points: policyPoints(opt.apply(c), baseline.All()),
		tables: []table{{
			title: "A2 — admission-policy ablation (λ=0.05)",
			key:   "policy",
			note:  "expected: lending has the lowest uncoop-per-coop ratio among policies that admit cooperative newcomers\n",
		}},
	}
	return s.run(opt)
}

// whitewash quantifies the whitewashing resistance the paper's
// introduction claims for reputation lending (extension experiment; the
// paper argues it qualitatively in §1): under complaints-based trust "a
// node may discard its old identity when it has collected enough negative
// feedback and assume a new identity and start afresh". A serial
// whitewasher is, in steady state, exactly a stream of fresh
// uncooperative identities — which is what the simulation's uncooperative
// arrival stream produces. The damage metric is the service those
// identities actually extract per identity tried — the attacker's return
// on creating one; lending also charges the members who vouched for
// freeriders the reputation their audits forfeit.
func whitewash(opt Options) (*Sweep, error) {
	c := config.Default()
	c.Lambda = 0.05
	c.NumTrans = 100_000
	c.FracUncoop = 0.5 // a heavy whitewashing campaign
	tried := func(r Replica) float64 { return float64(r.Metrics.ArrivalsUncoop) }
	s := &Sweep{
		name:   "whitewash",
		keyCSV: "policy",
		Columns: []Column{
			mean("identities tried", "identities_tried", tried),
			mean("identities in", "identities_in", admittedUncoop),
			{Header: "service per identity", CSV: "service_per_identity", of: func(_ *Point, rs []Replica) float64 {
				if n := meanOf(rs, tried); n > 0 {
					return meanOf(rs, func(r Replica) float64 { return float64(r.Metrics.ServedToUncoop) }) / n
				}
				return 0
			}},
			{Header: "introducer reputation forfeited", CSV: "introducer_cost", of: func(p *Point, rs []Replica) float64 {
				if p.policy != nil {
					return 0 // nobody vouched
				}
				return p.cfg.IntroAmt * meanOf(rs, func(r Replica) float64 { return float64(r.Metrics.AuditsForfeited) })
			}},
		},
		Points: policyPoints(opt.apply(c), []baseline.Policy{baseline.ComplaintsBased{}, baseline.MidSpectrum{}, baseline.FixedCredit{}}),
		tables: []table{{
			title: "Whitewashing resistance — service extracted per fresh freeriding identity (λ=0.05, 50% uncooperative arrivals)",
			key:   "policy",
			note: "expected: complaints-based rewards every new identity with full trust (whitewashing pays);\n" +
				"lending makes each identity cost an introduction and yields the least service per identity\n",
		}},
	}
	return s.run(opt)
}

// ablation sweeps the two design choices the paper fixes without
// evaluating (extension experiment; DESIGN.md A-series): the reward ratio
// (the paper pins reward = 20% of the lent amount) and the audit trigger
// (the paper pins auditTrans = 20 completed transactions).
//
//   - Reward ratio: with no reward, introducing is all risk and no upside
//     beyond community growth; large rewards mint reputation. The sweep
//     shows how introducer reputations and admissions respond.
//   - Audit trigger: early audits judge newcomers on thin evidence (more
//     false verdicts); late audits leave stakes locked up longer, starving
//     introducers of lending capacity.
//
// The audit points take sweep seeds from 100, clear of the reward points.
func ablation(opt Options) (*Sweep, error) {
	c := config.Default()
	c.Lambda = 0.05
	c.NumTrans = 100_000
	base := opt.apply(c)
	points := axis(AblationRewardRatios, func(ratio float64) config.Config {
		c := base
		c.Reward = ratio * c.IntroAmt
		return c
	})
	for i, at := range AblationAuditTrans {
		c := base
		c.AuditTrans = at
		points = append(points, Point{Key: at, cfg: c, seed: 100 + i})
	}
	n := len(AblationRewardRatios)
	s := &Sweep{
		name: "ablation",
		Columns: []Column{
			mean("coop in system", "", coopIn),
			mean("uncoop in system", "", uncoopIn),
			mean("final coop reputation", "", finalRep),
			mean("audits satisfied", "", func(r Replica) float64 { return float64(r.Metrics.AuditsSatisfied) }),
			mean("audits forfeited", "", func(r Replica) float64 { return float64(r.Metrics.AuditsForfeited) }),
		},
		Points: points,
		tables: []table{{
			title: "Ablation A — reward ratio (reward / introAmt; paper fixes 0.2)",
			key:   "reward ratio",
			cols:  []int{0, 1, 2},
			to:    n,
		}, {
			title: "Ablation B — audit trigger (completed transactions; paper fixes 20)",
			key:   "auditTrans",
			cols:  []int{3, 4, 0},
			from:  n,
			note: "expected: outcomes are insensitive to the reward ratio within a broad band (the stake, not the\n" +
				"reward, does the work); earlier audits return stakes sooner, so more audits complete within the run\n",
		}},
		// Both sweeps share one file, the audit rows leaving the
		// uncoop column empty and the reward rows the forfeited one.
		csv: func(s *Sweep) string {
			var b strings.Builder
			b.WriteString("sweep,x,coop,uncoop,rep_or_satisfied,forfeited\n")
			for i, p := range s.Points {
				v := p.Values
				if i < n {
					fmt.Fprintf(&b, "reward,%g,%g,%g,%g,\n", p.Key, v[0], v[1], v[2])
				} else {
					fmt.Fprintf(&b, "audit,%d,%g,,%g,%g\n", p.Key, v[0], v[3], v[4])
				}
			}
			return b.String()
		},
	}
	return s.run(opt)
}

// churnSweep is the availability/durability extension experiment the
// paper only gestures at: the Figure-1 growth workload under increasing
// membership churn. Each sweep point runs the paper's community with a
// Poisson departure clock at rate μ (30% of departures abrupt crashes,
// half of the departed returning after a mean 2000-tick downtime) and
// score-manager state migration on every arc change. The questions it
// answers: how much churn the admission economy absorbs before the
// community stops growing, and whether replicated score management
// actually preserves reputation state (wipeouts stay at zero until whole
// replica sets die together).
func churnSweep(opt Options) (*Sweep, error) {
	s := &Sweep{
		name:    "churn",
		keyCSV:  "mu",
		Columns: churnColumns(),
		Points: axis(DefaultChurnMus, func(mu float64) config.Config {
			c := growth()
			c.Churn.Mu = mu
			c.Churn.CrashFrac = 0.3
			c.Churn.RejoinProb = 0.5
			c.Churn.DowntimeMean = 2_000
			c.Churn.Migrate = true // state migration on even at μ=0 (the control)
			return opt.apply(c)
		}),
		tables: []table{{
			title: "Churn sweep — Figure-1 growth under departures (extension; λ=0.1, 30% crashes, 50% rejoin)",
			key:   "μ",
			note: "expected: population shrinks as μ grows and collapses to the floor once raw\n" +
				"departures outpace admission-filtered arrivals (μ ≈ λ), while success rate and mean\n" +
				"reputation hold — migration keeps reputation state alive (wipeouts ≈ 0), so churn\n" +
				"costs members, not decision quality\n",
		}},
	}
	return s.run(opt)
}

// sessions is the heavy-tailed churn calibration experiment: the
// Figure-1 growth workload under per-peer session clocks, swept over the
// session-length distribution at a fixed mean. The memoryless exponential
// model (what a global μ clock amounts to) is the control; the uniform
// distribution removes the short-session mass; Pareto(α=1.5) matches the
// measured shape of deployed P2P systems — many short visits, a few
// near-permanent residents. The question it answers: at equal mean
// session length, does the measured tail help or hurt — do long-lived
// residents anchor the replica sets (fewer wipeouts, steadier
// population), or do the many short visits churn the arcs harder?
func sessions(opt Options) (*Sweep, error) {
	s := &Sweep{
		name:    "sessions",
		keyCSV:  "session_dist",
		Columns: churnColumns(),
		Points: axis(DefaultSessionDists, func(dist string) config.Config {
			c := growth()
			c.Churn.SessionDist = dist
			c.Churn.CrashFrac = 0.25
			c.Churn.RejoinProb = 0.4
			c.Churn.DowntimeMean = 2_000
			c.Churn.Migrate = true
			c = opt.apply(c)
			// The calibration: mean session = run length / 5, set after
			// scaling so the expected session ends per peer are
			// scale-invariant, like the arrival rate.
			c.Churn.SessionMean = float64(c.NumTrans) / 5
			return c
		}),
		tables: []table{{
			title: "Session-distribution sweep — equal-mean churn, exponential vs uniform vs Pareto(1.5) (extension)",
			key:   "sessionDist",
			note: "expected: equal means, different tails — Pareto's short-session mass departs\n" +
				"young peers early (more lifecycle events) while its resident tail anchors replica\n" +
				"sets, so migration volume shifts relative to the memoryless control with wipeouts\n" +
				"staying ≈ 0 and decision quality flat; the calibrated tail is a population story,\n" +
				"not a correctness story\n",
		}},
	}
	return s.run(opt)
}

// stakes is the stake-liquidity extension experiment: the Figure-1
// growth workload under steady churn, swept over the admission-stake
// audit timeout. Point 0 (timeout disabled) is the paper's implicit
// policy and measures the leak churn opens — stakes whose newcomer or
// introducer departs before the audit settles hang in limbo as pending
// mass forever. Each enabled point arms the lifecycle clock: pending
// stakes resolve at the deadline (refunded to a surviving party, or
// stranded when both are gone for good) and offline newcomers' stake
// records expire under the same TTL. The sweep answers two questions:
// how much staked mass the timeout recovers as T tightens, and how much
// it costs — a deadline below the audit latency (≈ auditTrans·population
// /2 ticks) starts refunding stakes the audit would have settled.
// Whatever T, the ledger conserves: staked mass = settled + refunded +
// stranded + pending at every point.
//
// The swept deadlines derive from the scaled run length L: disabled,
// then L/20 … 2L/5 — so the sweep keeps its shape at any -scale, and the
// widest point sits near the audit latency where the settle-vs-refund
// tradeoff turns over.
func stakes(opt Options) (*Sweep, error) {
	c := growth()
	c.Churn.Mu = 0.05
	c.Churn.CrashFrac = 0.3
	c.Churn.RejoinProb = 0.3
	c.Churn.DowntimeMean = 2_000
	c.Churn.Migrate = true
	runLen := opt.apply(c).NumTrans
	s := &Sweep{
		name:   "stakes",
		keyCSV: "stake_timeout",
		Columns: []Column{
			finalPop,
			// A satisfied audit with the introducer gone strands instead
			// of settling.
			mean("audits", "audits", func(r Replica) float64 {
				return float64(r.Metrics.AuditsSatisfied + r.Metrics.AuditsForfeited)
			}),
			mean("refunded", "refunded", func(r Replica) float64 { return float64(r.Metrics.Churn.StakesRefunded) }),
			mean("stranded", "stranded", func(r Replica) float64 { return float64(r.Metrics.Churn.StakesStranded) }),
			mean("expired", "expired", func(r Replica) float64 { return float64(r.Metrics.Churn.StakesExpired) }),
			stat("mass staked", "mass_staked", func(r Replica) float64 { return r.Proto.StakedMass }),
			stat("mass settled", "mass_settled", func(r Replica) float64 { return r.Proto.SettledMass }),
			stat("mass refunded", "mass_refunded", func(r Replica) float64 { return r.Proto.RefundedMass }),
			stat("mass stranded", "mass_stranded", func(r Replica) float64 { return r.Proto.StrandedMass }),
			stat("mass pending", "mass_pending", func(r Replica) float64 { return r.Proto.PendingMass }),
		},
		Points: axis([]int64{0, runLen / 20, runLen / 10, runLen / 5, 2 * runLen / 5}, func(timeout int64) config.Config {
			point := c
			point.StakeTimeout = timeout // literal ticks: scaling leaves it alone
			return opt.apply(point)
		}),
		tables: []table{{
			title: "Stake-timeout sweep — admission economics under churn (extension; λ=0.1, μ=0.05, 30% crashes, 30% rejoin)",
			key:   "stakeTimeout",
			note: "expected: with the timeout disabled the churn leak shows up as pending mass that\n" +
				"never clears; arming the clock drains it into refunds (and a small counted stranded\n" +
				"mass), more aggressively as T tightens — until T undercuts the audit latency and\n" +
				"begins refunding stakes the audit would have settled. At every point the ledger\n" +
				"conserves: staked = settled + refunded + stranded + pending\n",
		}},
	}
	return s.run(opt)
}

// workloads is the workload-axis experiment (extension): the Figure-1
// growth conditions swept over the arrival generator itself — the paper's
// homogeneous Poisson control against the built-in workload presets
// (diurnal day/night program, flash-crowd spikes, behavioural cohorts).
// The question it answers: does admission quality survive when the
// arrival process stops being stationary and homogeneous — do the
// waiting-period pipeline and the reputation economy hold their
// discrimination under rush hours, flash crowds and freeloader cohorts?
//
// The control runs the diurnal preset's day-plateau rate flat, so every
// point sees the same peak admission pressure and the columns compare
// generator shape, not raw volume.
func workloads(opt Options) (*Sweep, error) {
	var points []Point
	for i, name := range DefaultWorkloadPoints {
		c := config.Default()
		c.Lambda = 0.03
		c.NumTrans = 60_000
		if name != "steady" {
			spec, err := workload.Preset(name)
			if err != nil {
				return nil, err
			}
			c.Workload = spec
		}
		points = append(points, Point{Key: name, cfg: opt.apply(c), seed: i})
	}
	s := &Sweep{
		name:   "workload",
		keyCSV: "workload",
		Columns: []Column{
			mean("arrivals", "arrivals", func(r Replica) float64 {
				return float64(r.Metrics.ArrivalsCoop + r.Metrics.ArrivalsUncoop)
			}),
			finalPop, departed, rejoins, successCol, meanCoopRep,
		},
		Points: points,
		tables: []table{{
			title: "Workload-axis sweep — steady Poisson vs diurnal, flash-crowd and cohort generators (extension)",
			key:   "workload",
			note: "expected: arrival volume tracks each generator's rate integral (diurnal ≈ 2/3 of\n" +
				"steady, flash-crowd ≈ 1/3 plus the spikes), while success rate and cooperative\n" +
				"reputation stay flat — admission quality is a per-peer economics story, not an\n" +
				"arrival-shape story; only the cohort point departs peers, and its freeloaders are\n" +
				"filtered the same way the steady mix's uncooperative arrivals are\n",
		}},
	}
	return s.run(opt)
}
