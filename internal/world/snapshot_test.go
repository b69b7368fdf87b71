package world

// Checkpoint property tests: a restored world must continue
// byte-identically to the uninterrupted run (over randomized
// churn/crash/rejoin schedules and seed-derived checkpoint ticks),
// snapshotting must be idempotent (snapshot(restore(s)) == s), and the
// encoding must be deterministic — the same world serializes to the
// same bytes every time, which is what catches any map-iteration site
// that leaks into the capture.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/lending"
	"repro/internal/metrics"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/workload"
)

// churnyCfg is a fast configuration whose pending queue, mid-run, holds
// every event kind but three: Poisson arrivals and departures, session
// clocks with crashes and rejoins, waiting-period intro events, stake
// timeouts and offline-stake expiries, beside the transaction and
// sample processes. Record leases and trace replay need more (see
// TestEveryEventKindCrossesACheckpoint).
func churnyCfg(seed uint64) config.Config {
	c := config.Default()
	c.NumInit = 25
	c.NumTrans = 4000
	c.Lambda = 0.05
	c.WaitPeriod = 150
	c.SampleEvery = 500
	c.NumSM = 3
	c.Seed = seed
	c.StakeTimeout = 600
	c.Churn = churn.Params{
		Mu:           0.01,
		CrashFrac:    0.4,
		RejoinProb:   0.5,
		DowntimeMean: 250,
		SessionMean:  1500,
		SessionDist:  churn.SessionPareto,
	}
	return c
}

// fingerprint pins a world's complete observable output: the sealed
// snapshot encoding plus the rendered time series and protocol stats.
func fingerprint(t *testing.T, w *World) []byte {
	t.Helper()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var buf bytes.Buffer
	buf.Write(data)
	buf.WriteString(metrics.CSV(w.Metrics().CoopCount, w.Metrics().UncoopCount, w.Metrics().CoopReputation))
	fmt.Fprintf(&buf, "%+v\n%+v\n", w.Protocol().Stats(), w.Bus().Stats())
	return buf.Bytes()
}

// openSnapshot decodes a sealed world checkpoint the way the CLI
// resumes one: checkpoint.Open, then DecodeSnapshotBody.
func openSnapshot(data []byte) (*Snapshot, error) {
	_, body, err := checkpoint.Open(data)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshotBody(body)
}

// roundTrip encodes, decodes and restores a world, asserting
// double-checkpoint idempotence along the way.
func roundTrip(t *testing.T, w *World) *World {
	t.Helper()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot at tick %d: %v", w.Engine().Now(), err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := openSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	restored, err := Restore(dec)
	if err != nil {
		t.Fatalf("Restore at tick %d: %v", snap.Now, err)
	}
	snap2, err := restored.Snapshot()
	if err != nil {
		t.Fatalf("re-Snapshot after restore: %v", err)
	}
	data2, err := snap2.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("snapshot(restore(s)) != s at tick %d: %d vs %d bytes", snap.Now, len(data), len(data2))
	}
	return restored
}

func TestSnapshotRestoreByteIdentity(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := churnyCfg(seed)

			ref, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := ref.Run(); err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			want := fingerprint(t, ref)

			// The interrupted run round-trips through chained checkpoints
			// at seed-derived ticks, restoring into a fresh world each
			// time.
			w, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			w.Start()
			end := sim.Tick(cfg.NumTrans)
			cuts := []sim.Tick{
				sim.Tick(300 + (seed*997)%1200),
				sim.Tick(1800 + (seed*571)%1000),
				sim.Tick(3100 + (seed*233)%700),
			}
			now := sim.Tick(0)
			for _, cut := range cuts {
				if err := w.RunFor(cut - now); err != nil {
					t.Fatalf("RunFor to %d: %v", cut, err)
				}
				w = roundTrip(t, w)
				now = cut
			}
			if err := w.RunFor(end - now); err != nil {
				t.Fatalf("RunFor tail: %v", err)
			}
			w.Finish()
			got := fingerprint(t, w)
			if !bytes.Equal(want, got) {
				t.Fatalf("restored run diverged from uninterrupted run (fingerprints differ: %d vs %d bytes)", len(want), len(got))
			}
		})
	}
}

// TestEveryEventKindCrossesACheckpoint cuts three runs whose pending
// queues hold, between them, all 12 event kinds the world and its
// lending protocol register: churnyCfg, churnyCfg with record leases,
// and a replay of churnyCfg's recorded trace. Each cut must hold the
// kinds its case lists, and each restored run must finish with its
// uncut run's fingerprint.
func TestEveryEventKindCrossesACheckpoint(t *testing.T) {
	churny := churnyCfg(2)
	lease := churny
	lease.Churn.LeaseTTL = 400
	rec := workload.NewRecorder(workload.Header{Seed: churny.Seed})
	w, err := New(churny)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.SetWorkloadRecorder(rec)
	if err := w.Run(); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	replay := churny
	replay.Workload = &workload.Spec{Trace: rec.Events()}

	cases := []struct {
		name string
		cfg  config.Config
		want []string
	}{
		{"churny", churny, []string{"transaction", "sample", "arrival", "departure", "session-end", "rejoin",
			"stake-timeout", "stake-expiry", "intro-refuse", "intro-lend"}},
		{"lease", lease, []string{"lease-expiry"}},
		{"replay", replay, []string{"wk-replay"}},
	}
	const cut = 1500
	for _, tc := range cases {
		run := func(cutting bool) []byte {
			w, err := New(tc.cfg)
			if err != nil {
				t.Fatalf("%s: New: %v", tc.name, err)
			}
			w.Start()
			if cutting {
				if err := w.RunFor(cut); err != nil {
					t.Fatalf("%s: RunFor: %v", tc.name, err)
				}
				snap, err := w.Snapshot()
				if err != nil {
					t.Fatalf("%s: Snapshot: %v", tc.name, err)
				}
				held := map[string]bool{}
				for _, ev := range snap.Events {
					held[ev.Kind] = true
				}
				for _, kind := range tc.want {
					if !held[kind] {
						t.Errorf("%s: the cut at tick %d holds no pending %q event", tc.name, cut, kind)
					}
				}
				w = roundTrip(t, w)
			}
			if err := w.RunFor(sim.Tick(tc.cfg.NumTrans) - w.Engine().Now()); err != nil {
				t.Fatalf("%s: RunFor: %v", tc.name, err)
			}
			w.Finish()
			return fingerprint(t, w)
		}
		if !bytes.Equal(run(false), run(true)) {
			t.Errorf("%s: restored run diverged from the uncut run", tc.name)
		}
	}
}

// TestSnapshotScriptedChurn exercises the scripted lifecycle paths a
// process-driven schedule cannot hit deterministically: batch crashes,
// scripted departures and explicit rejoins around the checkpoint.
func TestSnapshotScriptedChurn(t *testing.T) {
	cfg := churnyCfg(9)
	cfg.Churn.Mu = 0
	cfg.Churn.SessionMean = 0
	cfg.Churn.Migrate = true

	script := func(w *World) {
		if err := w.RunFor(900); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
		admitted := w.AdmittedPeers()
		if len(admitted) < 8 {
			t.Fatalf("only %d admitted members", len(admitted))
		}
		if err := w.DepartBatch(admitted[2:4], true); err != nil {
			t.Fatalf("DepartBatch: %v", err)
		}
		if err := w.Crash(admitted[5]); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		if err := w.RunFor(400); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
	}
	after := func(w *World) {
		departed := departedPeers(w)
		if len(departed) == 0 {
			t.Fatal("no departed peers to rejoin")
		}
		if err := w.Rejoin(departed[0]); err != nil {
			t.Fatalf("Rejoin: %v", err)
		}
		if err := w.RunFor(1200); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
		w.Finish()
	}

	ref, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref.Start()
	script(ref)
	after(ref)
	want := fingerprint(t, ref)

	w, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	script(w)
	w = roundTrip(t, w)
	after(w)
	got := fingerprint(t, w)
	if !bytes.Equal(want, got) {
		t.Fatal("restored scripted-churn run diverged from uninterrupted run")
	}
}

// TestRestoreNeverWritesThroughToSnapshot restores one snapshot twice.
// The first restored world runs until joins and leaves have patched
// restored placements in place; the snapshot must still encode to its
// original bytes, and the second world, restored from it afterwards, must
// finish with the uncut run's fingerprint. A snapshot cuts its placement
// records from shared backing arrays, so appending to one record must
// leave the next one unchanged.
func TestRestoreNeverWritesThroughToSnapshot(t *testing.T) {
	cfg := churnyCfg(8)
	end := sim.Tick(cfg.NumTrans)
	ref, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := ref.Run(); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want := fingerprint(t, ref)

	w, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(1500); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	orig, err := openSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	recorded := make(map[id.ID][]SMDepRecord, len(orig.SMCache))
	for _, rec := range orig.SMCache {
		recorded[rec.Peer] = rec.Deps
	}

	first, err := Restore(snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	entries := make(map[id.ID]*smCacheEntry)
	for _, pid := range first.slotIDsSorted(func(s *worldSlot) bool { return s.sm != nil }) {
		entries[pid] = first.slotOf(pid).sm
	}
	if err := first.RunFor(end - snap.Now); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	// Count the restored entries that survived the run with their arcs
	// patched in place; with none the check below would prove nothing.
	patched := 0
	for pid, e := range entries {
		if first.slotOf(pid).sm != e {
			continue // evicted or recomputed
		}
		for i, d := range e.deps {
			owner, _ := first.handles.ID(d.owner)
			if r := recorded[pid][i]; d.key != r.Key || owner != r.Owner || d.skip != r.Skip {
				patched++
				break
			}
		}
	}
	if patched == 0 {
		t.Fatal("no restored placement was patched in place")
	}
	if again, err := snap.Encode(); err != nil || !bytes.Equal(data, again) {
		t.Fatalf("running a restored world changed the snapshot it came from (%d patched placements, err %v)", patched, err)
	}

	second, err := Restore(snap)
	if err != nil {
		t.Fatalf("second Restore: %v", err)
	}
	if err := second.RunFor(end - snap.Now); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	second.Finish()
	if got := fingerprint(t, second); !bytes.Equal(want, got) {
		t.Fatal("the second world restored from the snapshot diverged from the uncut run")
	}

	fresh, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Each table's first two records that both hold entries.
	pair := func(n int, size func(int) int) int {
		for i := 0; i+1 < n; i++ {
			if size(i) > 0 && size(i+1) > 0 {
				return i
			}
		}
		t.Fatal("fixture too small: no two neighbouring records with entries")
		return 0
	}
	c := pair(len(fresh.SMCache), func(i int) int { return len(fresh.SMCache[i].Deps) })
	nextSMs, nextDeps := slices.Clone(fresh.SMCache[c+1].SMs), slices.Clone(fresh.SMCache[c+1].Deps)
	_ = append(fresh.SMCache[c].SMs, id.ID{})
	_ = append(fresh.SMCache[c].Deps, SMDepRecord{})
	if !slices.Equal(fresh.SMCache[c+1].SMs, nextSMs) || !slices.Equal(fresh.SMCache[c+1].Deps, nextDeps) {
		t.Fatal("appending to one placement record changed the next one")
	}
	o := pair(len(fresh.SMDeps), func(i int) int { return len(fresh.SMDeps[i].Peers) })
	nextPeers := slices.Clone(fresh.SMDeps[o+1].Peers)
	_ = append(fresh.SMDeps[o].Peers, id.ID{})
	if !slices.Equal(fresh.SMDeps[o+1].Peers, nextPeers) {
		t.Fatal("appending to one placement-index record changed the next one")
	}
}

// TestSnapshotEncodeDeterministic captures the same world twice and
// asserts identical bytes — Go randomizes map iteration per walk, so
// any capture path iterating a map raw fails this with high
// probability (the PR 4 rebuildSMDeps bug class).
func TestSnapshotEncodeDeterministic(t *testing.T) {
	w, err := New(churnyCfg(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(1500); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	var prev []byte
	for i := 0; i < 3; i++ {
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		data, err := snap.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if prev != nil && !bytes.Equal(prev, data) {
			t.Fatalf("capture %d of the same world produced different bytes", i)
		}
		prev = data
	}
}

func TestSnapshotPreconditions(t *testing.T) {
	w, err := New(churnyCfg(5))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := w.Snapshot(); err == nil {
		t.Fatal("Snapshot before Start should fail")
	}
	w.Start()
	if _, err := w.Snapshot(); err != nil {
		t.Fatalf("Snapshot after Start: %v", err)
	}
}

func TestDecodeSnapshotRejectsDefects(t *testing.T) {
	w, err := New(churnyCfg(6))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(800); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	if _, err := openSnapshot(data[:len(data)/2]); err == nil {
		t.Fatal("truncated checkpoint should be rejected")
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x20
	if _, err := openSnapshot(corrupt); err == nil {
		t.Fatal("bit-flipped checkpoint should be rejected")
	}
	if _, err := openSnapshot([]byte(`{"magic":"other","kind":"world","sha256":"","body":{}}`)); err == nil {
		t.Fatal("wrong magic should be rejected")
	}
	skew := *snap
	skew.Version = SnapshotVersion + 1
	if _, err := Restore(&skew); err == nil {
		t.Fatal("version-skewed snapshot should be rejected by Restore")
	}
	if _, err := skew.Encode(); err == nil {
		t.Fatal("version-skewed snapshot should be rejected by Encode")
	}
}

// TestRestoreRejectsEventsSharingASequenceNumber feeds Restore a
// snapshot whose event queue no world could have written: two events due
// at one tick under one sequence number. It is cut from a real snapshot,
// so it passes the decoder and reaches the check; Restore must refuse it
// rather than let the heap, not the record, order the two.
func TestRestoreRejectsEventsSharingASequenceNumber(t *testing.T) {
	w, err := New(churnyCfg(7))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(800); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	sameTick := -1
	for i := 1; i < len(snap.Events) && sameTick < 0; i++ {
		if snap.Events[i].At == snap.Events[i-1].At {
			sameTick = i
		}
	}
	if sameTick < 0 {
		t.Fatal("fixture too small: no two events at one tick")
	}
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
		want   string
	}{
		{"pristine", func(*Snapshot) {}, ""},
		{"two events share a sequence number", func(s *Snapshot) { s.Events[sameTick].Seq = s.Events[sameTick-1].Seq }, "share seq"},
	}
	for _, tc := range cases {
		s, err := openSnapshot(data)
		if err != nil {
			t.Fatalf("DecodeSnapshot: %v", err)
		}
		tc.mutate(s)
		_, err = Restore(s)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Restore: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: Restore accepted the snapshot", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRestoreRejectsHostileROCQRecords feeds Restore snapshots whose
// store or opinion-book records no world could have written: a store
// listing one subject twice, a store listing one reporter twice, and
// partner records whose count or sum Record could not have produced.
// Each is cut from a real snapshot, so it passes the decoder; Restore
// must refuse it and name the node or peer, rather than restore a store
// that exports differently or a book whose next report panics.
func TestRestoreRejectsHostileROCQRecords(t *testing.T) {
	w, err := New(churnyCfg(7))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(800); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// The first store with subjects, the first with credibilities and the
	// first peer with opinions carry the mutations.
	subjects, creds, opinions := -1, -1, -1
	for i, st := range snap.Stores {
		if subjects < 0 && len(st.State.Subjects) > 0 {
			subjects = i
		}
		if creds < 0 && len(st.State.Cred) > 0 {
			creds = i
		}
	}
	for i, p := range snap.Peers {
		if len(p.Opinions) > 0 {
			opinions = i
			break
		}
	}
	if subjects < 0 || creds < 0 || opinions < 0 {
		t.Fatalf("fixture too small: store with subjects %d, with credibilities %d, peer with opinions %d", subjects, creds, opinions)
	}
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
		want   []string
	}{
		{"pristine", func(*Snapshot) {}, nil},
		{"duplicate subject", func(s *Snapshot) {
			st := &s.Stores[subjects].State
			st.Subjects = append(st.Subjects, st.Subjects[len(st.Subjects)-1])
		}, []string{"store at " + snap.Stores[subjects].Node.Short(), "not strictly ascending"}},
		{"duplicate reporter", func(s *Snapshot) {
			st := &s.Stores[creds].State
			dup := st.Cred[0]
			dup.Cred /= 2
			st.Cred = append([]rocq.CredRecord{dup}, st.Cred...)
		}, []string{"store at " + snap.Stores[creds].Node.Short(), "not strictly ascending"}},
		{"partner count zero", func(s *Snapshot) {
			s.Peers[opinions].Opinions[0].Count, s.Peers[opinions].Opinions[0].Sum = 0, 1
		}, []string{"peer " + snap.Peers[opinions].ID.Short(), "count 0"}},
		{"partner sum above count", func(s *Snapshot) {
			rec := &s.Peers[opinions].Opinions[0]
			rec.Sum = float64(rec.Count) + 1
		}, []string{"peer " + snap.Peers[opinions].ID.Short(), "outside [0,"}},
	}
	for _, tc := range cases {
		s, err := openSnapshot(data)
		if err != nil {
			t.Fatalf("DecodeSnapshot: %v", err)
		}
		tc.mutate(s)
		r, err := Restore(s)
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("%s: Restore: %v", tc.name, err)
		case tc.want == nil:
			if err := r.RunFor(2000); err != nil {
				t.Errorf("%s: running the restored world: %v", tc.name, err)
			}
		case tc.want != nil && err == nil:
			t.Errorf("%s: Restore accepted the snapshot", tc.name)
		case tc.want != nil:
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
				}
			}
		}
	}
}

// TestRestoreRejectsHostileLendingRecords: a lending table out of the
// strictly ascending order every export writes — a duplicate or swapped
// record, at the top level or inside a score manager's record — must be
// refused with an error naming the table and the record, not restored
// into a world that re-snapshots to other bytes.
func TestRestoreRejectsHostileLendingRecords(t *testing.T) {
	w, err := New(churnyCfg(7))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(3000); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	lend := snap.Lending
	// The first manager record with two boot nonces carries the
	// per-manager mutation.
	boots := -1
	for i, rec := range lend.SM {
		if boots < 0 && len(rec.BootNonce) >= 2 {
			boots = i
		}
	}
	if len(lend.Stakes) < 2 || boots < 0 {
		t.Fatalf("fixture too small: %d stakes, manager record with boots %d", len(lend.Stakes), boots)
	}
	lastPeer := snap.Peers[len(snap.Peers)-1].ID
	lastSM := lend.SM[len(lend.SM)-1]
	manager := func(i int) string { return "score manager " + lend.SM[i].Node.Short() }
	cases := []struct {
		name   string
		mutate func(l *lending.State)
		want   []string
	}{
		{"pristine", func(*lending.State) {}, nil},
		{"second copy of a stake at half its amount", func(l *lending.State) {
			dup := l.Stakes[0]
			dup.Amount /= 2
			l.Stakes = append(l.Stakes, dup)
		}, []string{"stake for " + lend.Stakes[0].Newcomer.Short(), "not strictly ascending"}},
		{"swapped stakes", func(l *lending.State) {
			l.Stakes[0], l.Stakes[1] = l.Stakes[1], l.Stakes[0]
		}, []string{"stake for " + lend.Stakes[0].Newcomer.Short(), "not strictly ascending"}},
		{"duplicate manager record", func(l *lending.State) {
			l.SM = append(l.SM, lastSM)
		}, []string{"score manager " + lastSM.Node.Short(), "not strictly ascending"}},
		{"duplicate flagged peer", func(l *lending.State) {
			l.Flagged = append(l.Flagged, lastPeer, lastPeer)
		}, []string{"flagged peer " + lastPeer.Short(), "not strictly ascending"}},
		{"duplicate boot nonce", func(l *lending.State) {
			rec := &l.SM[boots]
			dup := rec.BootNonce[len(rec.BootNonce)-1]
			dup.Nonce++
			rec.BootNonce = append(rec.BootNonce, dup)
		}, []string{manager(boots), "boot nonce for", "not strictly ascending"}},
		{"duplicate peer a manager flagged", func(l *lending.State) {
			rec := &l.SM[0]
			rec.Flagged = append(rec.Flagged, lastPeer, lastPeer)
		}, []string{manager(0), "flagged peer " + lastPeer.Short(), "not strictly ascending"}},
	}
	for _, tc := range cases {
		s, err := openSnapshot(data)
		if err != nil {
			t.Fatalf("DecodeSnapshot: %v", err)
		}
		tc.mutate(&s.Lending)
		_, err = Restore(s)
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("%s: Restore: %v", tc.name, err)
		case tc.want != nil && err == nil:
			t.Errorf("%s: Restore accepted the snapshot", tc.name)
		case tc.want != nil:
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
				}
			}
		}
	}
}

// wipeOutReputedPeer crashes, in one membership event, the whole manager
// set of a reputed peer whose managers are all admitted, which wipes that
// peer's record out, and returns the peer.
func wipeOutReputedPeer(t *testing.T, w *World) id.ID {
	t.Helper()
	for _, pid := range w.AdmittedPeers() {
		sms := slices.Clone(w.ScoreManagers(pid))
		st, ok := w.storeAt(sms[0])
		if id.Contains(sms, pid) || !ok || !st.Known(pid) ||
			slices.ContainsFunc(sms, func(n id.ID) bool { return !w.IsAdmitted(n) }) {
			continue
		}
		if err := w.DepartBatch(sms, false); err != nil {
			t.Fatalf("crashing the managers of %s: %v", pid.Short(), err)
		}
		if !w.WipedOut(pid) {
			t.Fatalf("crashing every manager of %s did not wipe its record out", pid.Short())
		}
		return pid
	}
	t.Fatal("fixture too small: no reputed peer whose managers are all admitted")
	return id.ID{}
}

// forgottenWipedPeer runs churnyCfg(7) to tick 800 and wipes out a
// reputed peer's record, then departs and forgets that peer: its wipe
// mark, being sticky, outlives every other record of it.
func forgottenWipedPeer(t *testing.T) (*World, id.ID) {
	t.Helper()
	w, err := New(churnyCfg(7))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(800); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	pid := wipeOutReputedPeer(t, w)
	if err := w.Depart(pid); err != nil {
		t.Fatalf("Depart: %v", err)
	}
	w.forgetDeparted(pid)
	return w, pid
}

// TestRestoreKeepsWipeMarksOfForgottenPeers: a wipe mark outlives the
// permanent departure of its peer, so an export can write a peer in
// Wiped and not in Peers, live or departed. Restore must take it.
func TestRestoreKeepsWipeMarksOfForgottenPeers(t *testing.T) {
	w, pid := forgottenWipedPeer(t)
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !slices.Contains(snap.Wiped, pid) ||
		slices.ContainsFunc(snap.Peers, func(r PeerRecord) bool { return r.ID == pid }) {
		t.Fatalf("fixture: %s is not wiped and forgotten in the export", pid.Short())
	}
	restored := roundTrip(t, w)
	if !restored.WipedOut(pid) {
		t.Fatalf("restore dropped the wipe mark of %s", pid.Short())
	}
	if err := restored.RunFor(1000); err != nil {
		t.Fatalf("RunFor after restore: %v", err)
	}
}

// TestRestoreRejectsOutOfOrderWorldTables: a world table keyed by ID out
// of the strictly ascending order every export writes — here with its
// first two records swapped — must be refused with an error naming the
// table and the record, not restored into a world that re-snapshots to
// other bytes. The fixture gives every such table two records or more: a
// second wiped-out peer, and two members whose nodes crashed.
func TestRestoreRejectsOutOfOrderWorldTables(t *testing.T) {
	w, _ := forgottenWipedPeer(t)
	wipeOutReputedPeer(t, w)
	for _, pid := range w.AdmittedPeers()[:2] {
		w.Bus().Crash(pid)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cases := []struct {
		table string
		keys  []id.ID
		swap  func(s *Snapshot)
	}{
		{"peer", keysOf(snap.Peers, func(r PeerRecord) id.ID { return r.ID }), func(s *Snapshot) { swapFirstTwo(s.Peers) }},
		{"wiped peer", snap.Wiped, func(s *Snapshot) { swapFirstTwo(s.Wiped) }},
		{"store at", keysOf(snap.Stores, func(r StoreRecord) id.ID { return r.Node }), func(s *Snapshot) { swapFirstTwo(s.Stores) }},
		{"crashed node", snap.Crashed, func(s *Snapshot) { swapFirstTwo(s.Crashed) }},
		{"cached reputation of", keysOf(snap.RepCached, func(r RepRecord) id.ID { return r.Peer }), func(s *Snapshot) { swapFirstTwo(s.RepCached) }},
		{"placement entry", keysOf(snap.SMCache, func(r SMCacheRecord) id.ID { return r.Peer }), func(s *Snapshot) { swapFirstTwo(s.SMCache) }},
		{"placement-index owner", keysOf(snap.SMDeps, func(r SMDepsRecord) id.ID { return r.Owner }), func(s *Snapshot) { swapFirstTwo(s.SMDeps) }},
		{"in-flight arrival", keysOf(snap.Arrivals, func(r ArrivalRecord) id.ID { return r.Peer }), func(s *Snapshot) { swapFirstTwo(s.Arrivals) }},
	}
	if _, err := Restore(snap); err != nil {
		t.Fatalf("pristine: Restore: %v", err)
	}
	for _, tc := range cases {
		if len(tc.keys) < 2 {
			t.Errorf("fixture too small: %d %s records", len(tc.keys), tc.table)
			continue
		}
		s, err := openSnapshot(data)
		if err != nil {
			t.Fatalf("DecodeSnapshot: %v", err)
		}
		tc.swap(s)
		_, err = Restore(s)
		want := tc.table + " " + tc.keys[0].String() + " follows " + tc.keys[1].String() + ": not strictly ascending"
		switch {
		case err == nil:
			t.Errorf("%s: Restore accepted the swapped table", tc.table)
		case !strings.Contains(err.Error(), want):
			t.Errorf("%s: error %q does not mention %q", tc.table, err, want)
		}
	}
}

// TestRestoreRejectsRecordsNoExportWrites feeds Restore per-peer records
// no export writes, each cut from a real snapshot: a store at a node that
// holds no live peer (stores exist only at overlay members), an admission
// list naming a peer twice, which would count the peer twice in the
// population, a departed peer's record copied in as a live one (a peer
// both live and departed, which one record per peer rules out), and
// identities that contradict the world's signing mode, which fixes every
// identity the world makes (a live peer without a signer in a signing
// world, and the same snapshot with Config.NullSign set). Placement
// records follow the same rule: an export writes a placement only for a
// ring member, with arcs, each arc owned by a member, marked padded
// exactly when its managers repeat, and with the managers its arcs
// replay to unless padded; it writes an owner index list only at a
// member, and never an empty one. A list naming an unknown
// peer is accepted, because a forgotten peer's stale index entry looks
// exactly like that; the world restored from it must run on.
func TestRestoreRejectsRecordsNoExportWrites(t *testing.T) {
	w, err := New(churnyCfg(7))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(800); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	gone := slices.IndexFunc(snap.Peers, func(r PeerRecord) bool { return r.Departed })
	if gone < 0 || len(snap.Admitted) == 0 || snap.Config.NullSign {
		t.Fatalf("fixture: departed record at %d, %d admitted, null signing %v", gone, len(snap.Admitted), snap.Config.NullSign)
	}
	storeAt := func(node id.ID) func(s *Snapshot) {
		return func(s *Snapshot) {
			i, _ := slices.BinarySearchFunc(s.Stores, node, func(r StoreRecord, n id.ID) int { return r.Node.Cmp(n) })
			s.Stores = slices.Insert(s.Stores, i, StoreRecord{Node: node})
		}
	}
	ghost, departed, admitted := id.HashString("ghost"), snap.Peers[gone].ID, snap.Admitted[0]
	last := snap.Admitted[len(snap.Admitted)-1]
	// placementOf copies the first placement record in under another peer.
	placementOf := func(pid id.ID) func(s *Snapshot) {
		return func(s *Snapshot) {
			rec := s.SMCache[0]
			rec.Peer = pid
			i, _ := slices.BinarySearchFunc(s.SMCache, pid, func(r SMCacheRecord, n id.ID) int { return r.Peer.Cmp(n) })
			s.SMCache = slices.Insert(s.SMCache, i, rec)
		}
	}
	// indexAt inserts an owner index list naming one admitted peer.
	indexAt := func(owner id.ID) func(s *Snapshot) {
		return func(s *Snapshot) {
			i, _ := slices.BinarySearchFunc(s.SMDeps, owner, func(r SMDepsRecord, n id.ID) int { return r.Owner.Cmp(n) })
			s.SMDeps = slices.Insert(s.SMDeps, i, SMDepsRecord{Owner: owner, Peers: []id.ID{admitted}})
		}
	}
	arcOwner := func(owner id.ID) func(s *Snapshot) {
		return func(s *Snapshot) { s.SMCache[0].Deps[0].Owner = owner }
	}
	if len(snap.SMCache) == 0 || len(snap.SMDeps) == 0 {
		t.Fatalf("fixture: %d placements, %d index lists", len(snap.SMCache), len(snap.SMDeps))
	}
	placed, owner := snap.SMCache[0].Peer, snap.SMDeps[0].Owner
	// The first non-padded placement with two distinct managers.
	swapped := slices.IndexFunc(snap.SMCache, func(r SMCacheRecord) bool { return !r.Padded && len(r.SMs) > 1 && r.SMs[0] != r.SMs[1] })
	if swapped < 0 {
		t.Fatal("fixture: no placement with two distinct managers")
	}
	reordered := snap.SMCache[swapped].Peer
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
		want   []string
	}{
		{"pristine", func(*Snapshot) {}, nil},
		{"store at an unknown node", storeAt(ghost), []string{"store at " + ghost.Short(), "holds no live peer"}},
		{"store at a departed peer", storeAt(departed), []string{"store at " + departed.Short(), "holds no live peer"}},
		{"peer admitted twice", func(s *Snapshot) {
			s.Admitted = append(s.Admitted, admitted)
		}, []string{"peer " + admitted.Short(), "admitted twice"}},
		{"departed peer copied in as a live one", func(s *Snapshot) {
			live := s.Peers[gone]
			live.Departed = false
			s.Peers = slices.Insert(s.Peers, gone, live)
		}, []string{"peer " + departed.String() + " follows " + departed.String(), "not strictly ascending"}},
		{"live peer without a signer", func(s *Snapshot) {
			i := slices.IndexFunc(s.Peers, func(r PeerRecord) bool { return r.ID == last })
			s.Peers[i].Signer = nil
		}, []string{"peer " + last.Short(), "no signer in a signing world"}},
		{"signers in a null-signing world", func(s *Snapshot) {
			s.Config.NullSign = true
		}, []string{"peer " + snap.Peers[0].ID.Short(), "signer in a null-signing world"}},
		{"placement of a departed peer", placementOf(departed), []string{"placement of " + departed.Short(), "not a live peer"}},
		{"placement of an unknown peer", placementOf(ghost), []string{"placement of " + ghost.Short(), "not a live peer"}},
		{"arc owned by an unknown node", arcOwner(ghost), []string{"placement of " + placed.Short(), "arc owned by " + ghost.Short()}},
		{"arc owned by a departed peer", arcOwner(departed), []string{"placement of " + placed.Short(), "arc owned by " + departed.Short()}},
		{"index list at a departed peer", indexAt(departed), []string{"placement index at " + departed.Short(), "not a live peer"}},
		{"index list at an unknown node", indexAt(ghost), []string{"placement index at " + ghost.Short(), "not a live peer"}},
		{"empty index list", func(s *Snapshot) {
			s.SMDeps[0].Peers = nil
		}, []string{"placement index at " + owner.Short(), "is empty"}},
		{"placement without arcs", func(s *Snapshot) {
			s.SMCache[0].Deps = nil
		}, []string{"placement of " + placed.Short(), "records no arcs"}},
		{"managers its arcs do not replay to", func(s *Snapshot) {
			sms := s.SMCache[swapped].SMs
			sms[0], sms[1] = sms[1], sms[0]
		}, []string{"placement of " + reordered.Short(), "do not replay to"}},
		{"distinct managers marked padded", func(s *Snapshot) {
			s.SMCache[swapped].Padded = true
		}, []string{"placement of " + reordered.Short(), "marked padded true"}},
		{"index lists naming an unknown peer", func(s *Snapshot) {
			for i := range s.SMDeps {
				s.SMDeps[i].Peers = append(s.SMDeps[i].Peers, ghost)
			}
		}, nil},
	}
	for _, tc := range cases {
		s, err := openSnapshot(data)
		if err != nil {
			t.Fatalf("DecodeSnapshot: %v", err)
		}
		tc.mutate(s)
		r, err := Restore(s)
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("%s: Restore: %v", tc.name, err)
		case tc.want == nil:
			if err := r.RunFor(2000); err != nil {
				t.Errorf("%s: running the restored world: %v", tc.name, err)
			}
		case tc.want != nil && err == nil:
			t.Errorf("%s: Restore accepted the snapshot", tc.name)
		case tc.want != nil:
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
				}
			}
		}
	}
}

// TestRestoreRejectsPaddedPlacementsNoExportWrites: on a ring too small
// for numSM distinct managers every placement is padded, and no repair
// replays a padded placement, so restore checks it against the ring. A
// padded placement with its first two managers swapped, and one whose
// padding flag is cleared, are refused, each naming the peer.
func TestRestoreRejectsPaddedPlacementsNoExportWrites(t *testing.T) {
	cfg := config.Default()
	cfg.NumInit = 3
	cfg.Lambda = 0
	w, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(50); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	i := slices.IndexFunc(snap.SMCache, func(r SMCacheRecord) bool { return r.Padded && r.SMs[0] != r.SMs[1] })
	if i < 0 {
		t.Fatal("fixture: no padded placement leading with two distinct managers")
	}
	pid := snap.SMCache[i].Peer
	for _, tc := range []struct {
		name   string
		mutate func(r *SMCacheRecord)
		want   string
	}{
		{"pristine", func(*SMCacheRecord) {}, ""},
		{"managers swapped", func(r *SMCacheRecord) { r.SMs[0], r.SMs[1] = r.SMs[1], r.SMs[0] }, "names managers the ring does not place"},
		{"padding flag cleared", func(r *SMCacheRecord) { r.Padded = false }, "marked padded false"},
	} {
		s, err := openSnapshot(data)
		if err != nil {
			t.Fatalf("DecodeSnapshot: %v", err)
		}
		tc.mutate(&s.SMCache[i])
		_, err = Restore(s)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Restore: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: Restore accepted the snapshot", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), "placement of "+pid.Short()):
			t.Errorf("%s: error %q does not name the peer", tc.name, err)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// keysOf returns each record's key, in record order.
func keysOf[T any](recs []T, key func(T) id.ID) []id.ID {
	out := make([]id.ID, len(recs))
	for i, r := range recs {
		out[i] = key(r)
	}
	return out
}

// swapFirstTwo swaps a table's first two records.
func swapFirstTwo[T any](recs []T) { recs[0], recs[1] = recs[1], recs[0] }
