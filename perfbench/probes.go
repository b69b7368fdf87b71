package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/id"
	"repro/internal/overlay"
	"repro/internal/rocq"
	"repro/internal/world"
)

const (
	probeSample  = 256 // admitted peers the placement probes query
	probeRounds  = 20  // passes over the sample per timed probe
	handoffPeers = 16  // peers the handoff probe departs and rejoins
)

// spanLayers turns one traced rep's spans into per-layer times: the
// RunFor chunks and the simulator spans inside them, and the snapshot
// steps.
func (r *runner) spanLayers(rt *repTrace) {
	spans := rt.tr.spans[rt.mark:]
	chunk := map[int]bool{}
	var childS float64
	bench := map[string]float64{}
	prog := map[string]float64{}
	progN := map[string]float64{}
	for _, s := range spans {
		if s.Name == "world.RunFor" && !s.Program {
			chunk[s.ID] = true
		}
	}
	for _, s := range spans {
		d := s.duration().Seconds()
		switch {
		case !s.Program:
			bench[s.Name] += d
		case chunk[s.Parent]:
			prog[s.Name] += d
			progN[s.Name] += float64(s.Count)
			childS += d
		}
	}
	runS := bench["world.RunFor"]
	r.addLayer("world.run_s", runS)
	r.addLayer("world.tick_self_s", runS-childS)
	r.addLayer("world.attach_s", prog["overlay-join"])
	r.addLayer("world.attach_n", progN["overlay-join"])
	r.addLayer("world.detach_s", prog["overlay-leave"])
	r.addLayer("world.detach_n", progN["overlay-leave"])
	r.addLayer("world.sampling_s", prog["sampling"])
	r.addLayer("lending.fanout_s", prog["lending-fanout"])
	r.addLayer("lending.fanouts", progN["lending-fanout"])
	for _, step := range []string{"build", "seal", "open", "decode", "restore"} {
		r.addLayer("snapshot."+step+"_s", bench["snapshot."+step])
	}
}

// probeWorld reads a finished world's counters and runs the probes that
// need it: placement against fresh placement, reputation queries, the
// memory breakdown and, last because it changes the world, a
// depart-and-rejoin handoff of a fixed sample.
func (r *runner) probeWorld(w *world.World, rt *repTrace, live float64) error {
	m := w.Metrics()
	r.addLayer("world.transactions", float64(m.Served+m.Denied))
	ring := w.Ring()
	r.addLayer("overlay.members", float64(ring.Size()))
	r.addLayer("overlay.epoch", float64(ring.Epoch()))

	ps := w.Protocol().Stats()
	r.addLayer("lending.requests", float64(ps.Requests))
	r.addLayer("lending.admitted", float64(ps.Admitted))
	r.addLayer("lending.admit_ratio", ratio(float64(ps.Admitted), float64(ps.Requests)))
	r.addLayer("lending.audits", float64(ps.AuditsSatisfied+ps.AuditsForfeited))
	bs := w.Bus().Stats()
	r.addLayer("transport.sent", float64(bs.Sent))
	r.addLayer("transport.dropped", float64(bs.Dropped))
	r.addLayer("transport.msgs_per_admission", ratio(float64(bs.Sent), float64(ps.Admitted)))
	c := m.Churn
	r.addLayer("churn.departures", float64(c.Departures))
	r.addLayer("churn.crashes", float64(c.Crashes))
	r.addLayer("churn.rejoins", float64(c.Rejoins))
	r.addLayer("churn.migrated", float64(c.Migrated))
	r.addLayer("churn.wipeouts", float64(c.Wipeouts))
	r.addLayer("churn.lease_evictions", float64(c.LeaseEvictions))

	live1, cap1 := w.ArenaSlots()
	r.addLayer("arena.world_live", float64(live1))
	r.addLayer("arena.world_cap", float64(cap1))
	live2, cap2 := w.Protocol().ArenaSlots()
	r.addLayer("arena.lending_live", float64(live2))
	r.addLayer("arena.lending_cap", float64(cap2))
	var reports, subjects, rocqLive, rocqCap float64
	for _, node := range ring.Members() {
		st := w.Store(node)
		l, c := st.ArenaSlots()
		reports += float64(st.Reports())
		subjects += float64(st.Subjects())
		rocqLive += float64(l)
		rocqCap += float64(c)
	}
	r.addLayer("rocq.reports", reports)
	r.addLayer("rocq.subjects", subjects)
	r.addLayer("arena.rocq_live", rocqLive)
	r.addLayer("arena.rocq_cap", rocqCap)

	peers := w.AdmittedPeers()
	sample := spread(peers, probeSample)
	numSM := w.Config().NumSM
	var cached, fresh [][]id.ID
	rt.timed("probe.smcache", func() {
		t0 := time.Now()
		for i := 0; i < probeRounds; i++ {
			cached = cached[:0]
			for _, p := range sample {
				cached = append(cached, w.ScoreManagers(p))
			}
		}
		r.addLayer("smcache.cached_ns", perOp(time.Since(t0), probeRounds*len(sample)))
	})
	err := rt.span("probe.placement", func() error {
		t0 := time.Now()
		for i := 0; i < probeRounds; i++ {
			fresh = fresh[:0]
			for _, p := range sample {
				sms, err := ring.ScoreManagers(p, numSM)
				if err != nil {
					return err
				}
				fresh = append(fresh, sms)
			}
		}
		r.addLayer("overlay.placement_ns", perOp(time.Since(t0), probeRounds*len(sample)))
		return nil
	})
	if err != nil {
		return err
	}
	mismatches := 0
	for i := range sample {
		if !slices.Equal(cached[i], fresh[i]) {
			mismatches++
		}
	}
	r.addLayer("smcache.mismatches", float64(mismatches))
	if mismatches > 0 {
		return fmt.Errorf("placement cache disagrees with fresh placement for %d of %d sampled peers", mismatches, len(sample))
	}

	rt.timed("probe.reputation", func() {
		t0 := time.Now()
		for _, p := range peers {
			_ = w.Reputation(p)
		}
		r.addLayer("rocq.query_ns", perOp(time.Since(t0), len(peers)))
	})

	rt.timed("probe.memory", func() {
		perNode := ringBytesPerNode(ring.Size(), numSM)
		perSubject := storeBytesPerSubject(len(peers))
		r.addLayer("overlay.bytes_per_node", perNode)
		r.addLayer("rocq.bytes_per_subject", perSubject)
		overlayMB := perNode * float64(ring.Size()) / (1 << 20)
		rocqMB := perSubject * rocqCap / (1 << 20)
		r.addLayer("mem.overlay_mb", overlayMB)
		r.addLayer("mem.rocq_mb", rocqMB)
		r.addLayer("mem.unattributed_mb", live/(1<<20)-overlayMB-rocqMB)
	})

	return rt.span("probe.handoff", func() error {
		leavers := spread(peers, handoffPeers)
		t0 := time.Now()
		if err := w.DepartBatch(leavers, true); err != nil {
			return fmt.Errorf("handoff probe: %w", err)
		}
		for _, p := range leavers {
			if err := w.Rejoin(p); err != nil {
				return fmt.Errorf("handoff probe: %w", err)
			}
		}
		r.addLayer("churn.handoff_ns", perOp(time.Since(t0), len(leavers)))
		return nil
	})
}

// spread picks up to n evenly spaced elements, a fixed sample for a
// given population.
func spread(xs []id.ID, n int) []id.ID {
	if len(xs) <= n {
		return xs
	}
	out := make([]id.ID, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ringBytesPerNode measures the live-heap growth of a standalone ring
// built to n members, each queried once for its score managers so the
// replica-key memo is filled as in a running world.
func ringBytesPerNode(n, numSM int) float64 {
	if n == 0 {
		return 0
	}
	before := liveHeap()
	ring := overlay.NewRing()
	ids := make([]id.ID, n)
	for i := range ids {
		ids[i] = id.HashString(fmt.Sprintf("perfbench-node-%d", i))
		if err := ring.Join(ids[i]); err != nil {
			return 0
		}
	}
	for _, p := range ids {
		if _, err := ring.ScoreManagers(p, numSM); err != nil {
			return 0
		}
	}
	ids = nil
	after := liveHeap()
	runtime.KeepAlive(ring)
	return (after - before) / float64(n)
}

// storeBytesPerSubject measures the live-heap growth of a standalone
// ROCQ store holding n initialised subjects.
func storeBytesPerSubject(n int) float64 {
	if n == 0 {
		return 0
	}
	before := liveHeap()
	st := rocq.NewStore(rocq.DefaultParams())
	for i := 0; i < n; i++ {
		st.Init(id.HashString(fmt.Sprintf("perfbench-subject-%d", i)), 1)
	}
	after := liveHeap()
	runtime.KeepAlive(st)
	return (after - before) / float64(n)
}
