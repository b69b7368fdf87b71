package scenario

import (
	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/workload"
	"repro/internal/world"
)

// The built-in scenarios. The first five are the declarative forms of the
// repo's examples/* programs and are pinned by golden tests: under the
// same seed each reproduces, metric for metric, the run its hard-coded
// predecessor produced. The rest showcase spec features the examples
// never needed (parameter deltas, traitors, membership churn with
// score-manager state migration).
func init() {
	for name, build := range map[string]func() *Spec{
		"quickstart":      Quickstart,
		"churn":           Churn,
		"collusion":       Collusion,
		"filesharing":     Filesharing,
		"api":             API,
		"churn-wave":      ChurnWave,
		"traitor":         TraitorMilking,
		"churn-steady":    ChurnSteady,
		"flash-crowd":     FlashCrowd,
		"sm-wipeout":      SMWipeout,
		"churn-heavytail": ChurnHeavytail,
		"stake-churn":     StakeChurn,
		"diurnal":         Diurnal,
		"cohort-mix":      CohortMix,
		"mega":            Mega,
	} {
		if err := Register(name, build); err != nil {
			//replend:allow nopanic init-time registration of compiled-in builtins; failure is a compile-a-duplicate bug, caught by any test run
			panic(err)
		}
	}
}

// Quickstart is the smallest complete reputation-lending story: a warm
// founding community, an honest newcomer admitted through a selective
// member, a freerider refused by the same member, and a second freerider
// waved in by a naive member — who forfeits the stake at audit time.
func Quickstart() *Spec {
	base := config.Default()
	base.NumInit = 50
	base.NumTrans = 22_603 // 2000 warm-up + 3×(wait+1) + 20000 settling
	base.Lambda = 0
	base.WaitPeriod = 200
	base.AuditTrans = 10
	base.Seed = 42
	return &Spec{
		Name: "quickstart",
		Description: "Warmed 50-peer community; an honest newcomer, then a freerider, ask a " +
			"selective member; a second freerider asks a naive member. Stakes, audits, rewards.",
		Base: base,
		Phases: []Phase{
			{Name: "honest newcomer", At: 2_000, Inject: []Injection{{
				As: "honest", Class: "cooperative", Style: "selective",
				Introducer: Selector{Style: "selective"},
			}}},
			{Name: "freerider asks selective", At: 2_201, Inject: []Injection{{
				As: "refused", Class: "uncooperative", Style: "naive",
				Introducer: Selector{Style: "selective"},
			}}},
			{Name: "freerider asks naive", At: 2_402, Inject: []Injection{{
				As: "freerider", Class: "uncooperative", Style: "naive",
				Introducer: Selector{Style: "naive"},
			}}},
		},
	}
}

// Churn is the DHT substrate under membership churn: the community grows
// under steady arrivals, half of a reputable naive member's score
// managers crash mid-introduction, and the lend still lands through the
// surviving replicas.
func Churn() *Spec {
	base := config.Default()
	base.NumInit = 100
	base.NumTrans = 50_201
	base.Lambda = 0.02
	base.WaitPeriod = 200
	base.Seed = 5
	reputableNaive := Selector{Style: "naive", MinRep: 0.6, FallbackFirst: true}
	return &Spec{
		Name: "churn",
		Description: "Growing ring under λ=0.02 arrivals; at tick 50000 half the introducer's " +
			"score managers crash mid-introduction and the lend survives on the remaining replicas.",
		Base: base,
		Phases: []Phase{
			{Name: "crash and introduce", At: 50_000,
				Crash: &Fault{ScoreManagersOf: reputableNaive, Fraction: 0.5},
				Inject: []Injection{{
					As: "newcomer", Class: "cooperative", Style: "selective",
					Introducer: reputableNaive,
				}}},
			{Name: "recover", At: 50_201, Recover: true},
		},
	}
}

// Collusion is the attack the paper's introduction worries about: a mole
// farms reputation honestly, then introduces a ring of twelve freeriding
// colluders, one per waiting period, until staking drains it below the
// introduction floor.
func Collusion() *Spec {
	base := config.Default()
	base.NumInit = 150
	base.NumTrans = 76_012 // 30000 farming + 12×(wait+1) spree + 40000 dust-settling
	base.Lambda = 0
	base.WaitPeriod = 500
	base.AuditTrans = 10
	base.Seed = 99
	return &Spec{
		Name: "collusion",
		Description: "A mole enters honestly, farms reputation for 30000 ticks, then introduces " +
			"12 freeriding colluders one waiting-period apart; staking caps the ring.",
		Base: base,
		Phases: []Phase{
			{Name: "mole enters", At: 0, Inject: []Injection{{
				As: "mole", Class: "cooperative", Style: "naive",
				Introducer: Selector{Style: "naive", FallbackFirst: true},
			}}},
			{Name: "introduction spree", At: 30_000, Inject: []Injection{{
				As: "colluder", Class: "uncooperative", Style: "naive",
				Introducer: Selector{Ref: "mole"},
				Count:      12, SpacedBy: 501,
			}}},
		},
	}
}

// Filesharing is the paper's motivating workload: a scale-free community
// under a steady arrival stream, a quarter of it freeriders, defended
// only by reputation lending.
func Filesharing() *Spec {
	base := config.Default()
	base.NumInit = 200
	base.NumTrans = 60_000
	base.Lambda = 0.05
	base.FracUncoop = 0.25
	base.WaitPeriod = 500
	base.Seed = 2026
	return &Spec{
		Name: "filesharing",
		Description: "Scale-free file-sharing community growing under λ=0.05 arrivals, 25% " +
			"freeriders; lending keeps most of them out while cooperative peers flow in.",
		Base: base,
	}
}

// API is the introduction-chain story the core-API example tells:
// a founder introduces B, B earns standing, then B introduces C —
// reputation lending composing across generations.
func API() *Spec {
	base := config.Default()
	base.NumInit = 80
	base.NumTrans = 57_002 // 5000 warm-up + (wait+1) + 30000 + (wait+1) + 20000
	base.Lambda = 0.02
	base.FracUncoop = 0.25
	base.Seed = 7
	return &Spec{
		Name: "api",
		Description: "Introduction chain across generations: a founder introduces B; after 30000 " +
			"ticks of standing-building, B introduces C. Background arrivals at λ=0.02.",
		Base: base,
		Phases: []Phase{
			{Name: "generation 1", At: 5_000, Inject: []Injection{{
				As: "b", Class: "cooperative", Style: "selective",
				Introducer: Selector{}, // first admitted member: a founder
			}}},
			{Name: "generation 2", At: 36_001, Inject: []Injection{{
				As: "c", Class: "cooperative", Style: "selective",
				Introducer: Selector{Ref: "b"},
			}}},
		},
	}
}

// ChurnWave showcases parameter deltas: a calm community takes a churn
// wave (λ spikes 10×, 60% of the wave uncooperative), then the wave
// passes and parameters return to baseline.
func ChurnWave() *Spec {
	base := config.Default()
	base.NumInit = 150
	base.NumTrans = 30_000
	base.Lambda = 0.02
	base.WaitPeriod = 500
	base.Seed = 12
	lambdaHot, lambdaCalm := 0.2, 0.02
	uncoopHot, uncoopCalm := 0.6, 0.25
	return &Spec{
		Name: "churn-wave",
		Description: "Calm growth, then a 10000-tick churn wave (λ×10, 60% freeriders), then " +
			"calm again — the phase-delta machinery on a live community.",
		Base: base,
		Phases: []Phase{
			{Name: "wave hits", At: 10_000, Set: &world.Delta{
				Lambda: &lambdaHot, FracUncoop: &uncoopHot,
			}},
			{Name: "wave passes", At: 20_000, Set: &world.Delta{
				Lambda: &lambdaCalm, FracUncoop: &uncoopCalm,
			}},
		},
	}
}

// ChurnSteady is the steady-state churn workload at half paper scale:
// the paper's Table 1 community with a departure clock running against
// the arrival clock, a quarter of the departures abrupt crashes, and
// two-fifths of the departed peers returning with their reputation
// restored from their (migrating) score managers. The paper's model
// never removes members; this is the extension scenario that exercises
// score-manager state migration under sustained membership loss.
func ChurnSteady() *Spec {
	base := config.Default()
	base.NumInit = 250
	base.NumTrans = 250_000
	base.WaitPeriod = 500
	base.SampleEvery = 2_500
	base.Seed = 29
	base.Churn = churn.Params{
		Mu:           0.005,
		CrashFrac:    0.25,
		RejoinProb:   0.4,
		DowntimeMean: 2_500,
	}
	return &Spec{
		Name: "churn-steady",
		Description: "Half-paper-scale community under steady churn: departures at μ=0.005 against " +
			"λ=0.01 arrivals, 25% crashes, 40% rejoins; reputation state migrates across every arc change.",
		Base: base,
	}
}

// ChurnHeavytail is the heavy-tailed session workload calibrated against
// measured P2P session traces rather than the memoryless model: per-peer
// Pareto(α=1.5) session clocks, armed at admission, replace the global
// departure rate. The calibration maps the published shape — median
// sessions of roughly an hour against a waiting period of minutes, with
// a long tail of near-permanent residents (Saroiu et al.'s Gnutella and
// Napster measurements) — onto simulator time: the waiting period T=500
// stands in for ~5 minutes, so the Pareto scale is chosen to put the
// median session at ~26·T (mean 50000 ticks ⇒ xm = mean/3 ≈ 16667,
// median = xm·2^(1/α) ≈ 26500 ticks ≈ an hour) while α=1.5 keeps the
// measured many-short-visits/few-long-residents imbalance. Against the
// exponential model at the same mean, most departures now hit young
// peers and the long tail anchors the replica sets — the comparison the
// "sessions" experiment sweeps.
func ChurnHeavytail() *Spec {
	base := config.Default()
	base.NumInit = 250
	base.NumTrans = 250_000
	base.WaitPeriod = 500
	base.SampleEvery = 2_500
	base.Seed = 37
	base.Churn = churn.Params{
		SessionDist:  churn.SessionPareto,
		SessionMean:  50_000,
		CrashFrac:    0.25,
		RejoinProb:   0.4,
		DowntimeMean: 2_500,
	}
	return &Spec{
		Name: "churn-heavytail",
		Description: "Pareto(α=1.5) session clocks calibrated to measured P2P traces (median ≈ 26 " +
			"waiting periods, heavy resident tail) on the half-paper-scale community; sessions, not rates.",
		Base: base,
	}
}

// StakeChurn is the admission-economics workload under churn: a growing
// community whose members keep leaving (a quarter of them for good)
// while introductions are in flight, with the stake-lifecycle clock
// armed. Without the timeout every stake whose newcomer or introducer
// departs before the audit settles hangs in limbo forever; with it each
// stake ends in exactly one terminal state — settled by the audit,
// refunded to a surviving party, or stranded (counted) when nobody is
// left to pay — and offline newcomers' stake records expire under the
// same TTL instead of accreting. The timeout (12000 ticks) deliberately
// sits above the typical audit latency (auditTrans=10 completions at a
// few-hundred-peer population), so the audit remains the common path and
// the clock only sweeps up what churn orphans.
func StakeChurn() *Spec {
	base := config.Default()
	base.NumInit = 150
	base.NumTrans = 100_000
	base.Lambda = 0.02
	base.WaitPeriod = 500
	base.AuditTrans = 10
	base.SampleEvery = 2_500
	base.Seed = 41
	base.Churn = churn.Params{
		Mu:           0.008,
		CrashFrac:    0.3,
		RejoinProb:   0.35,
		DowntimeMean: 2_000,
	}
	base.StakeTimeout = 12_000
	return &Spec{
		Name: "stake-churn",
		Description: "Churn-aware admission economics: μ=0.008 departures against λ=0.02 arrivals with " +
			"the 12000-tick stake clock armed — orphaned stakes refund to survivors, strand when both parties " +
			"are gone, and offline stake records expire under the TTL.",
		Base: base,
	}
}

// FlashCrowd is the flash-crowd-then-exodus stress: a calm community
// takes a 10000-tick arrival flood, then the crowd stampedes out (the
// departure rate spikes 40×, half of it crashes) before calm returns.
// The delta machinery re-arms both Poisson clocks mid-run.
func FlashCrowd() *Spec {
	base := config.Default()
	base.NumInit = 150
	base.NumTrans = 60_000
	base.Lambda = 0.02
	base.WaitPeriod = 500
	base.Seed = 23
	base.Churn = churn.Params{
		Mu:           0.002,
		CrashFrac:    0.1,
		RejoinProb:   0.3,
		DowntimeMean: 2_000,
	}
	lambdaHot, lambdaCalm := 0.3, 0.02
	uncoopHot, uncoopCalm := 0.4, 0.25
	muHot, muCalm := 0.08, 0.002
	crashHot, crashCalm := 0.5, 0.1
	return &Spec{
		Name: "flash-crowd",
		Description: "Flash crowd then exodus: λ×15 arrival flood for 10000 ticks, then departures " +
			"spike 40× (half crashes) as the crowd leaves, then calm — churn deltas on both clocks.",
		Base: base,
		Phases: []Phase{
			{Name: "flash crowd", At: 15_000, Set: &world.Delta{
				Lambda: &lambdaHot, FracUncoop: &uncoopHot,
			}},
			{Name: "exodus", At: 25_000, Set: &world.Delta{
				Lambda: &lambdaCalm, FracUncoop: &uncoopCalm,
				Mu: &muHot, CrashFrac: &crashHot,
			}},
			{Name: "calm", At: 40_000, Set: &world.Delta{
				Mu: &muCalm, CrashFrac: &crashCalm,
			}},
		},
	}
}

// Mega is the million-peer world ROADMAP item 1 calls for: 10^6 admitted
// peers held in the arena memory layout (index-addressed slots, slab
// peer records and overlay nodes), with null signing — the fidelity
// opt-out built for exactly this scale — light churn with the record
// lease armed so departures recycle slots, and a short transaction tail
// driving the batched credit-delivery bus. The point is the footprint,
// not the dynamics: arrivals and departures are a rounding error against
// the standing million, and the run is long enough only to prove the
// community transacts and admits at full size.
func Mega() *Spec {
	base := config.Default()
	base.NumInit = 1_000_000
	base.NumTrans = 2_000
	base.Lambda = 0.1
	base.WaitPeriod = 500
	base.SampleEvery = 1_000
	base.NullSign = true
	base.Seed = 10
	base.Churn = churn.Params{
		Mu:           0.05,
		CrashFrac:    0.25,
		RejoinProb:   0.5,
		DowntimeMean: 300,
		LeaseTTL:     600,
	}
	return &Spec{
		Name: "mega",
		Description: "One million admitted peers in the arena layout under null signing: light " +
			"leased churn recycles slots, a short transaction tail exercises the batched bus; " +
			"the scenario exists to pin the memory footprint, not the dynamics.",
		Base: base,
	}
}

// SMWipeout is the durability-limit experiment: a newcomer earns
// standing, every one of its score managers crashes in a single
// membership event (the only data-loss case — the wipeout counter
// records it), the peer rebuilds its reputation from zero through
// fresh transactions, then departs gracefully and rejoins with the
// rebuilt standing restored by its new score managers.
func SMWipeout() *Spec {
	base := config.Default()
	base.NumInit = 60
	base.NumTrans = 30_000
	base.Lambda = 0
	base.WaitPeriod = 200
	base.AuditTrans = 10
	base.Seed = 31
	base.Churn = churn.Params{Migrate: true}
	return &Spec{
		Name: "sm-wipeout",
		Description: "A newcomer's entire score-manager set crashes in one tick — the only way churn " +
			"loses state (counted as a wipeout); the peer rebuilds, departs, and rejoins restored.",
		Base: base,
		Phases: []Phase{
			{Name: "victim enters", At: 0, Inject: []Injection{{
				As: "victim", Class: "cooperative", Style: "selective",
				Introducer: Selector{Style: "naive", FallbackFirst: true},
			}}},
			{Name: "replica wipeout", At: 10_000, Depart: &Departure{
				ScoreManagersOf: &Selector{Ref: "victim"},
				Crash:           true,
			}},
			{Name: "victim departs", At: 18_000, Depart: &Departure{
				Peers: &Selector{Ref: "victim"},
			}},
			{Name: "victim returns", At: 24_000, Rejoin: []string{"victim"}},
		},
	}
}

// Diurnal is the nonstationary-workload scenario: the repeating
// day/night rate program of the diurnal preset (busy plateau, dusk
// ramp, quiet night, dawn ramp — 30000-tick cycles) plus a second-day
// flash-crowd spike, driven through Lewis–Shedler thinning instead of
// the homogeneous λ knob. The run spans two full cycles so both ramps
// and the spike land, and the config's Lambda is zeroed to make the
// rate program visibly the only arrival source.
func Diurnal() *Spec {
	base := config.Default()
	base.NumInit = 150
	base.NumTrans = 60_000
	base.Lambda = 0
	base.WaitPeriod = 500
	base.SampleEvery = 2_500
	base.Seed = 61
	base.Workload = workload.Diurnal()
	return &Spec{
		Name: "diurnal",
		Description: "Two day/night cycles of the diurnal rate program (0.03 day plateau, ramps, " +
			"0.003 night, one 0.15 flash-crowd spike) driving arrivals by thinning; λ itself is zero.",
		Base: base,
	}
}

// CohortMix is the behavioural-cohort scenario: the heavytail-cohorts
// preset's three peer classes — long-lived residents, the Pareto
// mobile-churner calibration from churn-heavytail, and short-lived
// all-freerider freeloaders demanding twice their share of
// transactions — mixed 20/50/30 over a steady arrival stream. Cohort
// session plans drive departures, crashes and rejoins; no global churn
// block is set, so every lifecycle event here is cohort-driven.
func CohortMix() *Spec {
	base := config.Default()
	base.NumInit = 200
	base.NumTrans = 80_000
	base.Lambda = 0.03
	base.WaitPeriod = 500
	base.SampleEvery = 2_500
	base.Seed = 53
	base.Workload = workload.HeavytailCohorts()
	return &Spec{
		Name: "cohort-mix",
		Description: "Three behavioural cohorts (20% residents, 50% Pareto mobile-churners, 30% " +
			"double-demand freeloaders) mixed over λ=0.03 arrivals; cohort session plans drive all churn.",
		Base: base,
	}
}

// TraitorMilking scripts the reputation-milking attack of the extension
// experiments: three peers enter honestly, pass their audits (returning
// the introducers' stakes), and defect mid-run; ROCQ's sliding window
// collapses their reputations afterwards.
func TraitorMilking() *Spec {
	base := config.Default()
	base.NumInit = 150
	base.NumTrans = 60_000
	base.Lambda = 0
	base.WaitPeriod = 500
	base.AuditTrans = 10
	base.Seed = 17
	return &Spec{
		Name: "traitor",
		Description: "Three reputation milkers enter honestly, pass the one-shot audit, then " +
			"defect 20000 ticks in; the sliding window contains what the audit cannot.",
		Base: base,
		Phases: []Phase{
			{Name: "milkers enter", At: 0, Inject: []Injection{{
				As: "traitor", Class: "cooperative", Style: "selective",
				Introducer: Selector{Style: "naive", FallbackFirst: true},
				Count:      3, SpacedBy: 501,
				DefectAfter: 20_000,
			}}},
		},
	}
}
