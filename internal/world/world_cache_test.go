package world

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/rng"
	"repro/internal/rocq"
)

// TestScoreManagerCacheMatchesFreshPlacement is the cache oracle: across a
// randomized join/leave/crash sequence, the cached ScoreManagers result for
// every live peer must always equal a fresh ring.ScoreManagers call, and
// every cached store handle must equal a fresh resolution of the peer's
// slot in that manager's store. This pins the incremental invalidation
// rule (arc-dependency eviction) against the ground truth it claims to
// track, and guards the handles a repair keeps from the old set. With
// churn on, every founder join already repairs cached placements (state
// migration fills the successor's entry), so the check starts right
// after New. A repair writes in place: an entry that stays cached across
// a membership change keeps its manager and handle arrays.
func TestScoreManagerCacheMatchesFreshPlacement(t *testing.T) {
	for _, tc := range []struct {
		name string
		cp   churn.Params
	}{{"static", churn.Params{}}, {"churn", churn.Params{Migrate: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			if testCacheOracle(t, tc.cp, 400, rng.New(99).Intn) == 0 {
				t.Fatal("no membership change repaired a cached entry in place")
			}
		})
	}
}

// FuzzPlacementRepairs drives the cache oracle's join, detach and crash
// steps from the fuzz input instead of a fixed random stream: migrate
// picks churn with state migration over static placement, and the script
// bytes are the oracle's draws, read cyclically, for one step per two
// bytes, at most 64: longer inputs only slow the minimizer, which with
// 200 steps spent a 10 s budget on one input. After every step the
// oracle checks each cached placement against a fresh one and the owner
// index against the cache.
func FuzzPlacementRepairs(f *testing.F) {
	src := rng.New(99)
	script := make([]byte, 400)
	for i := range script {
		script[i] = byte(src.Intn(256))
	}
	f.Add(false, script)
	f.Add(true, script)
	f.Add(true, []byte{0, 5})
	f.Fuzz(func(t *testing.T, migrate bool, script []byte) {
		if len(script) == 0 {
			return
		}
		pos := 0
		draw := func(n int) int {
			b := script[pos%len(script)]
			pos++
			return int(b) % n
		}
		testCacheOracle(t, churn.Params{Migrate: migrate}, min(len(script)/2, 64), draw)
	})
}

// testCacheOracle runs the given number of steps on a 30-founder world,
// each a join, a detach or a crash picked by draw(n), which returns a
// number in [0, n). It returns how many times a repair rewrote a kept
// entry in place.
func testCacheOracle(t *testing.T, cp churn.Params, steps int, draw func(n int) int) int {
	cfg := config.Default()
	cfg.NumInit = 30
	cfg.Lambda = 0
	cfg.Seed = 3
	cfg.Churn = cp
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var extras []*peer.Peer
	checkAll := func(step int) {
		t.Helper()
		checkPlacementIndex(t, w, step)
		for _, pid := range w.slotIDsSorted(cached) {
			e := w.slotOf(pid).sm
			if len(e.refs) != len(e.sms) {
				t.Fatalf("step %d: peer %s: %d handles for %d managers", step, pid.Short(), len(e.refs), len(e.sms))
			}
			for i, n := range e.sms {
				if e.refs[i] != w.Store(n).Ref(pid) {
					t.Fatalf("step %d: peer %s: cached handle %d (manager %s) is not the peer's slot in that store", step, pid.Short(), i, n.Short())
				}
			}
		}
		for _, pid := range w.slotIDsSorted(func(s *worldSlot) bool { return s.pr != nil }) {
			if !w.ring.Contains(pid) {
				continue
			}
			got := w.ScoreManagers(pid)
			want, err := w.ring.ScoreManagers(pid, cfg.NumSM)
			if err != nil {
				t.Fatalf("step %d: fresh placement for %s: %v", step, pid.Short(), err)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: peer %s: cached %v != fresh %v", step, pid.Short(), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: peer %s: cached %v != fresh %v", step, pid.Short(), got, want)
				}
			}
		}
	}

	// held notes each cached entry's arrays before a membership change;
	// checkKept requires every entry still cached under the same pointer
	// to keep them, and counts the entries a repair rewrote.
	type heldEntry struct {
		pid  id.ID
		e    *smCacheEntry
		sms  *id.ID
		refs *rocq.Ref
		was  []id.ID
	}
	var held []heldEntry
	repaired := 0
	noteHeld := func() {
		held = held[:0]
		for _, pid := range w.slotIDsSorted(cached) {
			e := w.slotOf(pid).sm
			held = append(held, heldEntry{pid, e, &e.sms[0], &e.refs[0], slices.Clone(e.sms)})
		}
	}
	checkKept := func(step int) {
		t.Helper()
		for _, h := range held {
			if w.slotOf(h.pid).sm != h.e {
				continue // evicted, perhaps refilled
			}
			if &h.e.sms[0] != h.sms || &h.e.refs[0] != h.refs {
				t.Fatalf("step %d: peer %s: its cached entry got new arrays instead of a repair in place", step, h.pid.Short())
			}
			want, err := w.ring.ScoreManagers(h.pid, cfg.NumSM)
			if err != nil || !slices.Equal(h.e.sms, want) {
				t.Fatalf("step %d: peer %s: kept entry %v != fresh %v (%v)", step, h.pid.Short(), h.e.sms, want, err)
			}
			if !slices.Equal(h.e.sms, h.was) {
				repaired++
			}
		}
	}

	checkAll(-1)
	for step := 0; step < steps; step++ {
		noteHeld()
		switch op := draw(10); {
		case op < 5: // join a new node
			p := w.newPeer(id.HashString(fmt.Sprintf("cache-prop-%d", step)), peer.Cooperative, peer.Naive)
			if err := w.attachNode(p); err != nil {
				t.Fatal(err)
			}
			extras = append(extras, p)
		case op < 8: // leave: detach a previously joined extra node
			if len(extras) == 0 {
				continue
			}
			i := draw(len(extras))
			w.detachNode(extras[i].ID)
			extras = append(extras[:i], extras[i+1:]...)
		default: // crash a transport node: must not disturb placement
			if len(extras) > 0 {
				w.Bus().Crash(extras[draw(len(extras))].ID)
			}
		}
		checkKept(step)
		// Query a random subset between membership events so the cache
		// holds warm entries when the next change lands.
		for i := 0; i < 5; i++ {
			for _, pid := range w.slotIDsSorted(func(s *worldSlot) bool { return s.pr != nil }) {
				if w.ring.Contains(pid) {
					_ = w.ScoreManagers(pid)
					break
				}
			}
		}
		checkAll(step)
		if w.Err() != nil {
			t.Fatalf("step %d: world failed: %v", step, w.Err())
		}
	}
	return repaired
}

// checkPlacementIndex fails unless the owner index covers the placement
// cache: each cached entry is listed under every owner its arcs name,
// every owner with a list is a ring member, and the entry and index-slot
// counts equal a recount. It also requires each cached arc to be what a
// restore derives from the entry's walk, which is all a checkpoint keeps
// of it: replica arc r keys the peer's Replica(r) and is owned by the
// ring's successor of that key, and a skip arc keys the peer, directly
// follows a replica arc and is owned by the peer's next member.
func checkPlacementIndex(t *testing.T, w *World, step int) {
	t.Helper()
	entries, slots := 0, 0
	for i := range w.slots {
		h := arena.Ordinal(i)
		pid, _ := w.handles.ID(h)
		sl := &w.slots[i]
		if len(sl.smDeps) > 0 && !w.ring.Contains(pid) {
			t.Fatalf("step %d: %s holds an index list but is not a ring member", step, pid.Short())
		}
		slots += len(sl.smDeps)
		if sl.sm == nil {
			continue
		}
		entries++
		next, _ := w.ring.NextMember(pid)
		replica := 0
		for j, d := range sl.sm.deps {
			owner, _ := w.handles.ID(d.owner)
			if int(d.owner) >= len(w.slots) || !slices.Contains(w.slots[d.owner].smDeps, h) {
				t.Fatalf("step %d: placement of %s is not listed under its arc owner %s", step, pid.Short(), owner.Short())
			}
			key, want := pid, next
			if !d.skip {
				key = pid.Replica(replica)
				want, _ = w.ring.Successor(key)
				replica++
			} else if j == 0 || sl.sm.deps[j-1].skip {
				t.Fatalf("step %d: placement of %s has skip arc %d after no replica arc", step, pid.Short(), j)
			}
			if d.key != key || owner != want {
				t.Fatalf("step %d: placement of %s has arc %d (skip %v) keyed %s and owned by %s; the ring derives %s owned by %s",
					step, pid.Short(), j, d.skip, d.key.Short(), owner.Short(), key.Short(), want.Short())
			}
		}
	}
	if entries != w.smCached || slots != w.smDepSlots {
		t.Fatalf("step %d: %d cached entries and %d index slots, counted %d and %d", step, w.smCached, w.smDepSlots, entries, slots)
	}
}

// TestNewLeavesNoOrphanedPlaceholders pins placeholder hygiene: a store
// slot without evidence exists only as a handle of its subject's cached
// placement. With churn on, every founder join repairs cached placements;
// a repair or eviction that moves a manager away must recycle the peer's
// empty slot there, or it lingers unreachable until the peer is forgotten.
// A run with churn and the stake clock also reads the placements of peers
// that have left, which no cache holds (the stake clock, and a lend whose
// introducer left during the waiting period): such a read must create no
// slot either.
func TestNewLeavesNoOrphanedPlaceholders(t *testing.T) {
	t.Run("new", func(t *testing.T) {
		cfg := config.Default()
		cfg.Lambda = 0
		cfg.Churn = churn.Params{Mu: 0.05, CrashFrac: 0.25}
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkNoOrphanedPlaceholders(t, w)
	})
	t.Run("run", func(t *testing.T) {
		cfg := config.Default()
		cfg.NumInit = 200
		cfg.NumTrans = 40000
		cfg.Lambda = 0.05
		cfg.StakeTimeout = 3000
		cfg.Churn = churn.Params{Mu: 0.01}
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if w.Metrics().Churn.Departures == 0 {
			t.Fatal("fixture: no peer departed")
		}
		checkNoOrphanedPlaceholders(t, w)
	})
}

// checkNoOrphanedPlaceholders fails unless every evidence-free store slot
// backs a cached placement.
func checkNoOrphanedPlaceholders(t *testing.T, w *World) {
	t.Helper()
	referenced := map[id.ID]int{} // store node -> evidence-free slots cached placements hold
	for _, pid := range w.slotIDsSorted(cached) {
		sms := w.slotOf(pid).sm.sms
		for i, n := range sms {
			if !id.Contains(sms[:i], n) && !w.Store(n).Known(pid) {
				referenced[n]++
			}
		}
	}
	orphans := 0
	for _, node := range w.slotIDsSorted(func(s *worldSlot) bool { return s.store != nil }) {
		st, _ := w.storeAt(node)
		slots, _ := st.ArenaSlots()
		orphans += slots - st.Subjects() - referenced[node]
	}
	if orphans != 0 {
		t.Fatalf("%d store slots hold no evidence and back no cached placement", orphans)
	}
}

// TestDetachEvictsAllPerPeerState is the leak regression: a high-refusal
// workload (all-selective introducers, mostly uncooperative arrivals) must
// not accrete per-peer state for the peers it turns away. Every map the
// world or protocol keys by node must track the live population.
func TestDetachEvictsAllPerPeerState(t *testing.T) {
	c := smallCfg()
	c.FracNaive = 0 // every introducer is selective
	c.ErrSel = 0    // and never errs: every uncooperative arrival is refused
	c.FracUncoop = 0.8
	c.NumTrans = 12000
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	refused := m.RefusedSelectiveCoop + m.RefusedSelectiveUncoop + m.RefusedRepCoop + m.RefusedRepUncoop
	if refused == 0 {
		t.Fatal("scenario produced no refusals; leak regression needs them")
	}
	// Live population: admitted members plus arrivals still waiting.
	live := int64(w.PopulationSize()) + m.Pending
	check := func(name string, got int) {
		if int64(got) > live {
			t.Errorf("%s holds %d entries for %d live peers (leak of refused peers)", name, got, live)
		}
	}
	check("peers", len(w.slotIDsSorted(func(s *worldSlot) bool { return s.pr != nil })))
	check("ring", w.Ring().Size())
	check("stores", len(w.slotIDsSorted(func(s *worldSlot) bool { return s.store != nil })))
	check("placement cache", len(w.slotIDsSorted(cached)))
	// Slots are never released, but those holding state track the live
	// population too, and the handle table holds one entry per peer the
	// run created.
	check("slots holding state", len(w.slotIDsSorted(holdsState)))
	if got, max := w.handles.Len(), m.Founders+m.ArrivalsCoop+m.ArrivalsUncoop; int64(got) > max {
		t.Errorf("handle table holds %d identities, more than the %d founders and arrivals", got, max)
	}
	check("protocol signers", w.Protocol().RegisteredPeers())
	check("protocol manager states", w.Protocol().ManagerStates())
	if got := w.topo.Len(); got != w.PopulationSize() {
		t.Errorf("topology tracks %d peers, population is %d", got, w.PopulationSize())
	}
	// The dependency index is lazy, but it must not exceed one slot per
	// (peer, manager) pair for the live population by more than the
	// transient slack of entries awaiting compaction.
	slots := 0
	for _, s := range w.slots {
		slots += len(s.smDeps)
	}
	if max := int(live+1) * (c.NumSM + 2) * 2; slots > max {
		t.Errorf("dependency index holds %d slots, want <= %d", slots, max)
	}
}
