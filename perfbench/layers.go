package main

// perLayer lists the metrics a traced (-trace 1) run reports, one group
// per module of the simulator. A layer the workload bypasses, or one the
// benchmark process cannot observe (the worlds of sweep run inside the
// fleet's workers), reports 0.
var perLayer = []struct{ name, unit string }{
	// sim: discrete events processed by the engine, and the simulated
	// ticks per wall second and CPU per 1000 ticks of the run's untraced
	// reps (measured, not gated: see endToEnd).
	{"sim.events", "count"},
	{"sim.events_per_tick", "count"},
	{"sim.ticks_per_s", "ticks/s"},
	{"sim.cpu_ms_per_ktick", "ms"},
	// world: the transaction tick. run_s spans every RunFor chunk;
	// tick_self_s is run_s minus the program's own spans inside it.
	{"world.run_s", "s"},
	{"world.tick_self_s", "s"},
	{"world.transactions", "count"},
	// world: attach and detach (the overlay-join and overlay-leave spans)
	// and periodic sampling, inside the run phase.
	{"world.attach_s", "s"},
	{"world.attach_n", "count"},
	{"world.detach_s", "s"},
	{"world.detach_n", "count"},
	{"world.sampling_s", "s"},
	// world: the score-manager placement cache against fresh placement.
	{"smcache.cached_ns", "ns"},
	{"smcache.mismatches", "count"},
	// overlay
	{"overlay.placement_ns", "ns"},
	{"overlay.members", "count"},
	{"overlay.epoch", "count"},
	{"overlay.bytes_per_node", "B"},
	// rocq
	{"rocq.reports", "count"},
	{"rocq.subjects", "count"},
	{"rocq.query_ns", "ns"},
	{"rocq.bytes_per_subject", "B"},
	// lending
	{"lending.fanout_s", "s"},
	{"lending.fanouts", "count"},
	{"lending.requests", "count"},
	{"lending.admitted", "count"},
	{"lending.admit_ratio", "ratio"},
	{"lending.audits", "count"},
	// transport
	{"transport.sent", "count"},
	{"transport.dropped", "count"},
	{"transport.msgs_per_admission", "count"},
	// churn
	{"churn.departures", "count"},
	{"churn.crashes", "count"},
	{"churn.rejoins", "count"},
	{"churn.migrated", "count"},
	{"churn.wipeouts", "count"},
	{"churn.lease_evictions", "count"},
	{"churn.handoff_ns", "ns"},
	// world snapshot and checkpoint envelope
	{"snapshot.build_s", "s"},
	{"snapshot.seal_s", "s"},
	{"snapshot.open_s", "s"},
	{"snapshot.decode_s", "s"},
	{"snapshot.restore_s", "s"},
	{"snapshot.bytes", "B"},
	// fleet
	{"fleet.units", "count"},
	{"fleet.batch_s", "s"},
	{"fleet.job_bytes", "B"},
	{"fleet.result_bytes", "B"},
	{"fleet.overhead_frac", "ratio"},
	// telemetry: the JSONL stream sink on churn
	{"telemetry.records", "count"},
	{"telemetry.bytes", "B"},
	{"telemetry.write_s", "s"},
	// arena: live and allocated slots per subsystem
	{"arena.world_live", "count"},
	{"arena.world_cap", "count"},
	{"arena.lending_live", "count"},
	{"arena.lending_cap", "count"},
	{"arena.rocq_live", "count"},
	{"arena.rocq_cap", "count"},
	// Go runtime memory over the run phase, and the live heap at its end
	// split into the overlay and rocq estimates and the unattributed rest.
	{"mem.alloc_mb", "MB"},
	{"mem.allocs", "count"},
	{"mem.gc_cycles", "count"},
	{"mem.gc_cpu_s", "s"},
	{"mem.heap_live_mb", "MB"},
	{"mem.heap_bytes_per_peer", "B"},
	{"mem.overlay_mb", "MB"},
	{"mem.rocq_mb", "MB"},
	{"mem.unattributed_mb", "MB"},
	// tracing itself: traced CPU per tick relative to the untraced reps.
	{"trace.overhead_frac", "ratio"},
}
