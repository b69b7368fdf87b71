// Package repro is a from-scratch Go reproduction of "Reputation Lending
// for Virtual Communities" (Garg, Montresor, Battiti; University of
// Trento TR DIT-05-086, 2005 / ICDE 2006 workshops), grown into a small
// simulation platform for admission economics in P2P communities.
//
// The library lives in this root and 26 packages under internal/, in
// dependency order:
//
// Substrates:
//
//   - internal/id — the 160-bit circular identifier space naming peers
//     and keys.
//   - internal/rng — splittable deterministic randomness; every
//     stochastic choice flows through a seeded stream.
//   - internal/sim — the discrete-event engine: integer ticks, FIFO
//     within a tick, RunUntil/Step.
//   - internal/arena — dense ordinals and pointer-stable slabs for
//     per-peer state.
//   - internal/telemetry — the write-only event bus and the world's
//     only event path: one Event type with its Kind vocabulary, and
//     sinks (JSONL stream, progress counters, wall-clock spans).
//   - internal/metrics — time series, Welford statistics, histograms,
//     CSV.
//   - internal/transport — the simulated message bus (instant delivery,
//     crash injection) and pluggable signing identities (Ed25519 or the
//     null opt-out).
//   - internal/overlay — the Chord-like ring: treap-backed membership,
//     live neighbour pointers, score-manager placement.
//   - internal/topology — random and scale-free respondent/introducer
//     bias.
//   - internal/checkpoint — the sealed binary state-file format.
//
// The paper's model:
//
//   - internal/peer — behaviour classes: cooperative vs freeriding,
//     naive vs selective introducers, traitor semantics.
//   - internal/rocq — the ROCQ reputation substrate the lending
//     protocol sits on.
//   - internal/churn — the membership-churn extension: departure
//     clocks, session models, crash/rejoin draws, snapshot
//     reconciliation, lifecycle stats.
//   - internal/workload — rate programs, behavioural cohorts and trace
//     record/replay over the paper's single Poisson knob.
//   - internal/config — Table 1 plus the extension knobs (churn, stake
//     timeout, null signing), defaults, validation, JSON.
//   - internal/lending — the paper's contribution: signed lend orders,
//     bipartite credit fan-out, nonce dedup, the admission audit, and
//     the stake-lifecycle state machine (pending → settled | refunded |
//     stranded) with its timeout-and-refund rules (docs/economics.md).
//   - internal/baseline — the open-admission alternatives the paper
//     argues against.
//   - internal/world — the simulator wiring it all together: the
//     transaction/arrival/departure/sampling loops, state migration,
//     parameter deltas, the stake clock.
//
// Workload and harness layers:
//
//   - internal/scenario — declarative JSON workloads: base config,
//     timed phases, selectors, a registry of golden-pinned built-ins.
//   - internal/fleet — the distributed runner sharding replica work
//     units over worker processes and machines, byte-identically; its
//     RunJob is the one replica executor, in-process too.
//   - internal/experiments — one runnable per paper figure/table plus
//     the extension sweeps (whitewash, traitor, ablation, churn,
//     sessions, stakes).
//   - internal/cli — the set-up the two commands share: -pprof,
//     -workload, the local fleet behind -workers, the -telemetry sink.
//   - internal/trace — structured event log with invariant checks, one
//     sink on the telemetry bus.
//   - internal/asciiplot — terminal line charts for the reports.
//   - internal/benchgate — the BENCH shape gate behind cmd/bench-check.
//   - internal/lint — the determinism analyzers behind
//     cmd/replend-lint.
//
// The runnable tools live under cmd/ (replend-sim, replend-experiments,
// replend-lint, bench-check, docs-check), narrated walkthroughs under
// examples/ (each a thin program over a declarative scenario — see
// docs/scenarios.md), and the benchmarks that regenerate the paper's
// evaluation in bench_test.go.
// DESIGN.md holds the system inventory and experiment index;
// EXPERIMENTS.md records paper-vs-measured outcomes; docs/economics.md
// tells the stake-lifecycle story; docs/fleet.md the distributed runner.
package repro
