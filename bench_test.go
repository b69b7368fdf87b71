// Package repro's root benchmarks regenerate every table and figure of
// the paper at a reduced but shape-preserving scale, one testing.B target
// per result (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkFig1        Figure 1  — uncoop vs coop growth, both topologies
//	BenchmarkSuccessRate §4.1 / T2 — decision success rate with vs without introductions
//	BenchmarkFig2        Figure 2  — cooperative reputation over time per λ
//	BenchmarkFig3        Figure 3  — population vs proportion of naive introducers
//	BenchmarkFig4        Figure 4+5 — counts and proportions vs reputation lent
//	BenchmarkFig6        Figure 6  — population vs percentage of freeriding entrants
//	BenchmarkCollusion   A1        — the §1 collusion attack under staking
//	BenchmarkBaselines   A2        — admission-policy ablation
//	BenchmarkWhitewash   A3        — service extracted per fresh freeriding identity
//	BenchmarkAblation    A4        — reward-ratio and audit-trigger sweeps
//	BenchmarkTraitor     A5        — reputation milking vs ROCQ's sliding window
//
// Each iteration runs the full (scaled) experiment; the reported metric is
// therefore end-to-end experiment regeneration cost. Micro-benchmarks for
// the substrates (score-manager placement, ROCQ updates, transaction
// throughput) are alongside.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/id"
	"repro/internal/overlay"
	"repro/internal/rocq"
	"repro/internal/scenario"
	"repro/internal/world"
)

// benchOptions shrinks experiments so a full -bench=. pass stays in
// minutes while preserving the paper's qualitative shapes.
func benchOptions(b *testing.B) experiments.Options {
	b.Helper()
	return experiments.Options{Runs: 2, Scale: 0.04, SeedBase: 1}
}

func reportShape(b *testing.B, keyvals ...any) {
	b.Helper()
	for i := 0; i+1 < len(keyvals); i += 2 {
		if v, ok := keyvals[i+1].(float64); ok {
			b.ReportMetric(v, fmt.Sprint(keyvals[i]))
		}
	}
}

// runReport runs the named experiment at benchOptions.
func runReport(b *testing.B, name string) experiments.Report {
	b.Helper()
	r, err := experiments.Run(name, benchOptions(b))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// value returns a sweep's value at the point keyed key, under the column
// headed header.
func value(b *testing.B, s *experiments.Sweep, key any, header string) float64 {
	b.Helper()
	for _, p := range s.Points {
		if p.Key != key {
			continue
		}
		for c, col := range s.Columns {
			if col.Header == header {
				return p.Values[c]
			}
		}
	}
	b.Fatalf("%s has no value at %v under %q", s.Name(), key, header)
	return 0
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runReport(b, "fig1").(*experiments.Sweep)
		if i == b.N-1 {
			reportShape(b,
				"coop_powerlaw", value(b, f, "powerlaw", "final coop"),
				"uncoop_powerlaw", value(b, f, "powerlaw", "final uncoop"),
				"slope_powerlaw", value(b, f, "powerlaw", "uncoop admitted per coop admitted"),
			)
		}
	}
}

func BenchmarkSuccessRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runReport(b, "successrate").(*experiments.Sweep)
		if i == b.N-1 {
			reportShape(b,
				"sr_with", value(b, s, "introductions required", "success rate"),
				"sr_without", value(b, s, "open admission", "success rate"),
			)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	// Two contrasting arrival rates carry the figure's shape.
	lambdas := []float64{0.1, 0.005}
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig2(lambdas, benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"final_rep_lambda_0.1", value(b, f, 0.1, "final"),
				"final_rep_lambda_0.005", value(b, f, 0.005, "final"),
			)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	fractions := []float64{0, 0.5, 1}
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig3(fractions, benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"uncoop_all_selective", value(b, f, 0.0, "uncoop in system"),
				"uncoop_all_naive", value(b, f, 1.0, "uncoop in system"),
			)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	amounts := []float64{0.05, 0.25, 0.45}
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig45(amounts, benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"coop_amt_0.05", value(b, f, 0.05, "coop"),
				"coop_amt_0.45", value(b, f, 0.45, "coop"),
				"refused_rep_amt_0.45", value(b, f, 0.45, "refused: introducer rep"),
			)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	percentages := []float64{0, 50, 100}
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig6(percentages, benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"coop_pct_0", value(b, f, 0.0, "coop"),
				"coop_pct_100", value(b, f, 100.0, "coop"),
				"uncoop_pct_100", value(b, f, 100.0, "uncoop"),
			)
		}
	}
}

func BenchmarkCollusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunCollusion(benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"colluders_admitted", float64(c.ColludersAdmitted),
				"colluders_refused", float64(c.ColludersRefused),
				"max_colluder_rep", c.MaxColluderRep,
			)
		}
	}
}

func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runReport(b, "baselines").(*experiments.Sweep)
		if i == b.N-1 {
			for _, policy := range []string{"reputation-lending", "complaints-based"} {
				b.ReportMetric(value(b, r, policy, "uncoop per coop"), "uncoop_per_coop_"+policy)
			}
		}
	}
}

// BenchmarkFig1Macro is the headline scaling benchmark: the Figure 1
// population-growth sweep at half paper scale (≈2000 peers by run end,
// both topologies, 2 replicas). It exercises the simulator's hot paths
// under sustained arrivals — placement caching under churn, the lending
// fan-out, per-tick transactions and sampling — and is the wall-clock
// number BENCH_2.json tracks across PRs.
func BenchmarkFig1Macro(b *testing.B) {
	if testing.Short() {
		b.Skip("macro benchmark: minutes of simulated growth")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("fig1", experiments.Options{Runs: 2, Scale: 0.5, SeedBase: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnMacro is the membership-churn macro benchmark: the churn
// sweep (four μ points, 2 replicas each) at half paper scale. On top of
// Fig1Macro's hot paths it exercises the departure clocks, batch
// detachment, score-manager state migration and the incremental sampling
// flush under sustained membership loss — the BENCH_3.json workload.
func BenchmarkChurnMacro(b *testing.B) {
	if testing.Short() {
		b.Skip("macro benchmark: minutes of simulated churn")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("churn", experiments.Options{Runs: 2, Scale: 0.5, SeedBase: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkTransactionTick measures the cost of one simulated transaction
// in a mid-sized community — the simulator's hot path.
func BenchmarkTransactionTick(b *testing.B) {
	cfg := config.Default()
	cfg.NumInit = 1000
	cfg.NumTrans = int64(b.N) + 1
	cfg.Lambda = 0
	w, err := world.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWorldNew measures building a churn-active founding community:
// the mega built-in cut to 5,000 founders. With churn on, every founder's
// join repairs the cached placements it invalidates, which is most of the
// build. allocs_per_founder (heap objects allocated per founder, from the
// runtime's malloc count) repeats to within a few objects per build, so
// BENCH_10.json gates it where wall clock cannot be.
func BenchmarkWorldNew(b *testing.B) {
	cfg := scenario.Mega().Base
	cfg.NumInit = 5_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if _, err := world.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*cfg.NumInit), "allocs_per_founder")
}

// BenchmarkGrowthFootprint measures the paper's headline run — the
// Fig-1 world at Table-1 settings, λ = 0.1, seed 1 — cut to 20,000
// ticks. Each iteration builds and runs one world untimed as a warm-up,
// then builds and runs a second one and reports allocs_per_tick (heap
// objects allocated per tick, from the runtime's malloc count) and
// heap_bytes_per_peer (the live heap the world holds after a collection,
// per admitted peer). BENCH_10.json gates allocs_per_tick.
func BenchmarkGrowthFootprint(b *testing.B) {
	cfg := config.Default()
	cfg.Lambda = 0.1
	cfg.NumTrans = 20_000
	cfg.Seed = 1
	run := func() *world.World {
		w, err := world.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
		return w
	}
	var allocs, heapBytes, peers float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		w := run()
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		allocs += float64(after.Mallocs - before.Mallocs)
		heapBytes += float64(after.HeapAlloc) - float64(before.HeapAlloc)
		peers += float64(w.PopulationSize())
		runtime.KeepAlive(w)
	}
	b.ReportMetric(allocs/float64(int64(b.N)*cfg.NumTrans), "allocs_per_tick")
	b.ReportMetric(heapBytes/peers, "heap_bytes_per_peer")
}

// BenchmarkScoreManagerPlacement measures replica-key placement on a
// growing ring — the per-transaction placement cost.
func BenchmarkScoreManagerPlacement(b *testing.B) {
	ring := overlay.NewRing()
	var members []id.ID
	for i := 0; i < 4096; i++ {
		n := id.HashString(fmt.Sprintf("bench-node-%d", i))
		if err := ring.Join(n); err != nil {
			b.Fatal(err)
		}
		members = append(members, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ring.ScoreManagers(members[i%len(members)], 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkROCQReport measures one feedback report folded into a score
// manager's aggregate.
func BenchmarkROCQReport(b *testing.B) {
	store := rocq.NewStore(rocq.DefaultParams())
	subject := id.FromUint64(1)
	store.Credit(subject, 0.1)
	op := rocq.Opinion{Value: 1, Quality: 0.8, Count: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Report(id.FromUint64(uint64(i%64+2)), subject, op)
	}
}

// BenchmarkRingJoin measures membership growth cost (the churn path).
func BenchmarkRingJoin(b *testing.B) {
	ring := overlay.NewRing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ring.Join(id.HashString(fmt.Sprintf("join-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingChurn measures a join/leave pair on a standing 4096-node
// ring — the refused-peer path that every admission attempt under a
// selective community exercises.
func BenchmarkRingChurn(b *testing.B) {
	ring := overlay.NewRing()
	for i := 0; i < 4096; i++ {
		if err := ring.Join(id.HashString(fmt.Sprintf("churn-node-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := id.HashString(fmt.Sprintf("churn-%d", i))
		if err := ring.Join(n); err != nil {
			b.Fatal(err)
		}
		if err := ring.Leave(n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhitewash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := runReport(b, "whitewash").(*experiments.Sweep)
		if i == b.N-1 {
			for _, policy := range []string{"reputation-lending", "complaints-based"} {
				b.ReportMetric(value(b, w, policy, "service per identity"), "service_per_identity_"+policy)
			}
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	ratios := experiments.AblationRewardRatios
	for i := 0; i < b.N; i++ {
		a := runReport(b, "ablation").(*experiments.Sweep)
		if i == b.N-1 {
			reportShape(b,
				"coop_reward_ratio_0", value(b, a, ratios[0], "coop in system"),
				"coop_reward_ratio_1", value(b, a, ratios[len(ratios)-1], "coop in system"),
			)
		}
	}
}

func BenchmarkTraitor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunTraitor(benchOptions(b))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShape(b,
				"rep_at_defection", tr.RepAtDefection,
				"rep_after", tr.RepAfter,
			)
		}
	}
}

// BenchmarkChurnMacroFleet is BenchmarkChurnMacro dispatched through the
// fleet coordinator (2 protocol workers, in-process transports): the same
// units flow through job serialization, the scheduler, heartbeats and
// result decoding, so the delta against BenchmarkChurnMacro is the
// fleet's protocol-and-scheduling overhead. Cross-process scaling numbers
// (real worker processes, 1/2/4 workers) are recorded in BENCH_4.json —
// on a multi-core box the sweep parallelizes across worker processes;
// the protocol cost measured here is what bounds the 1-worker penalty.
func BenchmarkChurnMacroFleet(b *testing.B) {
	if testing.Short() {
		b.Skip("macro benchmark: minutes of simulated churn")
	}
	f, err := fleet.New(fleet.Config{Workers: 2, Spawn: fleet.PipeSpawn()})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("churn", experiments.Options{Runs: 2, Scale: 0.5, SeedBase: 1, Fleet: f}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetProtocol is the protocol microbenchmark: one tiny unit
// round-tripped through a single pipe worker — frame encode, dispatch,
// worker decode, execution of a minimal world, result encode and merge.
// The non-execution share is the per-unit floor a fleet adds.
func BenchmarkFleetProtocol(b *testing.B) {
	f, err := fleet.New(fleet.Config{Workers: 1, Spawn: fleet.PipeSpawn()})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	c := config.Default()
	c.NumInit = 20
	c.NumTrans = 100
	c.Lambda = 0
	data, err := json.Marshal(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Run([]fleet.Job{{Kind: fleet.KindConfig, Config: data, Seed: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}
