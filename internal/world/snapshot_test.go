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
	"reflect"
	"runtime"
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
// restored placements in place and compacted restored index lists; the
// snapshot must still encode to its original bytes, and the second world,
// restored from it afterwards, must finish with the uncut run's
// fingerprint. A snapshot cuts its placement walks and index lists from
// shared backing arrays, so appending to one record's must leave the next
// one unchanged.
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
	first, err := Restore(snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	type restored struct {
		e    *smCacheEntry
		deps []smDep
	}
	entries := make(map[id.ID]restored)
	for _, pid := range first.slotIDsSorted(cached) {
		e := first.slotOf(pid).sm
		entries[pid] = restored{e, slices.Clone(e.deps)}
	}
	if err := first.RunFor(end - snap.Now); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	// Count the restored entries that survived the run with their arcs
	// patched in place; with none the check below would prove nothing.
	patched := 0
	for pid, r := range entries {
		if first.slotOf(pid).sm == r.e && !slices.Equal(r.e.deps, r.deps) {
			patched++
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
	// The first record with a field after which another record has one.
	pair := func(size func(r *PeerRecord) int) (int, int) {
		for i := range fresh.Peers {
			if size(&fresh.Peers[i]) == 0 {
				continue
			}
			for j := i + 1; j < len(fresh.Peers); j++ {
				if size(&fresh.Peers[j]) > 0 {
					return i, j
				}
			}
		}
		t.Fatal("fixture too small: no two records with entries")
		return 0, 0
	}
	c, d := pair(func(r *PeerRecord) int { return len(r.Walk) })
	nextWalk := slices.Clone(fresh.Peers[d].Walk)
	_ = append(fresh.Peers[c].Walk, true)
	if !slices.Equal(fresh.Peers[d].Walk, nextWalk) {
		t.Fatal("appending to one placement walk changed the next one")
	}
	o, q := pair(func(r *PeerRecord) int { return len(r.Index) })
	nextIndex := slices.Clone(fresh.Peers[q].Index)
	_ = append(fresh.Peers[o].Index, id.ID{})
	if !slices.Equal(fresh.Peers[q].Index, nextIndex) {
		t.Fatal("appending to one index list changed the next one")
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

// TestRestoreRefusesHugeNumSM restores a churning world's checkpoint
// with NumSM raised to 2^20 and to 2^40. Without an upper bound, such a
// restore failed only after a placement walk had made a slice of
// capacity NumSM (20 MB at 2^20), and at 2^40 the process died in the
// allocator. Validation must refuse both, naming config.MaxNumSM, before
// restore allocates anything of that size.
func TestRestoreRefusesHugeNumSM(t *testing.T) {
	w, err := New(churnyCfg(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.Start()
	if err := w.RunFor(500); err != nil {
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
	for _, numSM := range []int{1 << 20, 1 << 40} {
		s, err := openSnapshot(data)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		s.Config.NumSM = numSM
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Restore(s)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "MaxNumSM") {
			t.Errorf("NumSM %d: Restore error = %v, want one naming MaxNumSM", numSM, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("NumSM %d: the refused restore allocated %d B, want under 1 MiB", numSM, grew)
		}
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
	for i, p := range snap.Peers {
		if st := p.Store; st != nil && subjects < 0 && len(st.Subjects) > 0 {
			subjects = i
		}
		if st := p.Store; st != nil && creds < 0 && len(st.Cred) > 0 {
			creds = i
		}
		if opinions < 0 && len(p.Opinions) > 0 {
			opinions = i
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
			st := s.Peers[subjects].Store
			st.Subjects = append(st.Subjects, st.Subjects[len(st.Subjects)-1])
		}, []string{"store at " + snap.Peers[subjects].ID.Short(), "not strictly ascending"}},
		{"duplicate reporter", func(s *Snapshot) {
			st := s.Peers[creds].Store
			dup := st.Cred[0]
			dup.Cred /= 2
			st.Cred = append([]rocq.CredRecord{dup}, st.Cred...)
		}, []string{"store at " + snap.Peers[creds].ID.Short(), "not strictly ascending"}},
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
		{"manager record with neither a credit nor a flag", func(l *lending.State) {
			l.SM[boots].BootNonce = nil
			l.SM[boots].Flagged = nil
		}, []string{manager(boots), "neither a credit nor a flag"}},
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
// other bytes. The fixture gives both such tables two records or more: a
// second wiped-out peer beside the forgotten one.
func TestRestoreRejectsOutOfOrderWorldTables(t *testing.T) {
	w, _ := forgottenWipedPeer(t)
	wipeOutReputedPeer(t, w)
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
// no export writes, each cut from a real snapshot, and requires an error
// naming the peer: an admission list naming a peer twice, which would
// count the peer twice in the population; a departed peer's record copied
// in as a live one (a peer both live and departed, which one record per
// peer rules out); identities that contradict the world's signing mode,
// which fixes every identity the world makes (a live peer without a signer
// in a signing world, and the same snapshot with Config.NullSign set); a
// departed record carrying any state only a live peer holds (a crash flag,
// an in-flight arrival, a sampled reputation, a store, a placement walk or
// an index list); a walk that neither replays to numSM managers nor is
// the ring's padded walk, here one cut to its first replica; and a
// placement whose manager hosts no store. A list naming an unknown peer is
// accepted, because a forgotten peer's stale index entry looks exactly
// like that; the world restored from it must run on.
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
	placed := slices.IndexFunc(snap.Peers, func(r PeerRecord) bool { return len(r.Walk) > 1 })
	if gone < 0 || placed < 0 || len(snap.Admitted) == 0 || snap.Config.NullSign {
		t.Fatalf("fixture: departed record at %d, placement at %d, %d admitted, null signing %v", gone, placed, len(snap.Admitted), snap.Config.NullSign)
	}
	departed, admitted := snap.Peers[gone].ID, snap.Admitted[0]
	last := snap.Admitted[len(snap.Admitted)-1]
	// The manager of the placed peer that loses its store, and the first
	// peer in restore order whose placement names it.
	manager := w.ScoreManagers(snap.Peers[placed].ID)[0]
	host := slices.IndexFunc(snap.Peers, func(r PeerRecord) bool { return r.ID == manager })
	named := slices.IndexFunc(snap.Peers, func(r PeerRecord) bool {
		return len(r.Walk) > 0 && id.Contains(w.slotOf(r.ID).sm.sms, manager)
	})
	// carrying gives the departed record one field only a live peer has.
	carrying := func(set func(r *PeerRecord)) func(s *Snapshot) {
		return func(s *Snapshot) { set(&s.Peers[gone]) }
	}
	tick := sim.Tick(1)
	liveOnly := []string{"departed peer " + departed.Short(), "only a live peer holds"}
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
		want   []string
	}{
		{"pristine", func(*Snapshot) {}, nil},
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
		{"departed peer crashed", carrying(func(r *PeerRecord) { r.Crashed = true }), liveOnly},
		{"departed peer in flight", carrying(func(r *PeerRecord) { r.Arrival = &tick }), liveOnly},
		{"departed peer sampled", carrying(func(r *PeerRecord) { r.Rep = 0.5 }), liveOnly},
		{"departed peer hosting a store", carrying(func(r *PeerRecord) { r.Store = &rocq.StoreState{} }), liveOnly},
		{"departed peer with a placement", carrying(func(r *PeerRecord) { r.Walk = make([]bool, 4*snap.Config.NumSM) }), liveOnly},
		{"departed peer with an index list", carrying(func(r *PeerRecord) { r.Index = []id.ID{admitted} }), liveOnly},
		{"walk cut to its first replica", func(s *Snapshot) {
			s.Peers[placed].Walk = s.Peers[placed].Walk[:1]
		}, []string{"placement of " + snap.Peers[placed].ID.Short(), "neither replays to"}},
		{"manager without a store", func(s *Snapshot) {
			s.Peers[host].Store = nil
		}, []string{"placement of " + snap.Peers[named].ID.Short(), "manager " + manager.Short() + ", which hosts no store"}},
		{"index lists naming an unknown peer", func(s *Snapshot) {
			for i := range s.Peers {
				if len(s.Peers[i].Index) > 0 {
					s.Peers[i].Index = append(s.Peers[i].Index, id.HashString("ghost"))
				}
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
// replays a padded placement, so restore requires its walk to be the one
// the ring walks now. A padded walk cut short, one grown by a replica and
// one with a skip arc taken off are refused, each naming the peer.
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
	i := slices.IndexFunc(snap.Peers, func(r PeerRecord) bool { return slices.Contains(r.Walk, true) })
	if i < 0 || !w.slotOf(snap.Peers[i].ID).sm.padded {
		t.Fatal("fixture: no padded placement with a skip arc")
	}
	pid, skip := snap.Peers[i].ID, slices.Index(snap.Peers[i].Walk, true)
	for _, tc := range []struct {
		name   string
		mutate func(r *PeerRecord)
		want   string
	}{
		{"pristine", func(*PeerRecord) {}, ""},
		{"walk cut short", func(r *PeerRecord) { r.Walk = r.Walk[:len(r.Walk)-1] }, "the ring's padded walk"},
		{"walk grown by a replica", func(r *PeerRecord) { r.Walk = append(r.Walk, false) }, "the ring's padded walk"},
		{"skip arc taken off", func(r *PeerRecord) { r.Walk[skip] = false }, "the ring's padded walk"},
	} {
		s, err := openSnapshot(data)
		if err != nil {
			t.Fatalf("DecodeSnapshot: %v", err)
		}
		tc.mutate(&s.Peers[i])
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

// TestRestoreNeverAdoptsSnapshotMemory is the reverse of
// TestRestoreNeverWritesThroughToSnapshot: it restores a world from a
// decoded checkpoint, then overwrites every slice element and pointee of
// the decoded snapshot, and the world must still finish with the uncut
// run's fingerprint. The decoder cuts a snapshot's slices from chunks
// shared by many records, so a restored world that kept one would both
// pin the chunk and change with the snapshot. The Config is left alone:
// restore adopts it as the world's configuration, and it is the one
// decoded value restore keeps.
func TestRestoreNeverAdoptsSnapshotMemory(t *testing.T) {
	nullSign := churnyCfg(9)
	nullSign.NullSign = true
	for i, cfg := range append(differentialCfgs(), nullSign) {
		t.Run(fmt.Sprintf("cfg=%d", i), func(t *testing.T) {
			end := sim.Tick(cfg.NumTrans)
			ref, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := ref.Run(); err != nil {
				t.Fatalf("uncut run: %v", err)
			}
			want := fingerprint(t, ref)

			w, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			w.Start()
			if err := w.RunFor(end / 2); err != nil {
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
			decoded, err := openSnapshot(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			resumed, err := Restore(decoded)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			sv := reflect.ValueOf(decoded).Elem()
			overwritten := 0
			for f := 0; f < sv.NumField(); f++ {
				if sv.Type().Field(f).Name != "Config" {
					overwritten += scribble(sv.Field(f))
				}
			}
			if overwritten == 0 {
				t.Fatal("fixture: the snapshot holds nothing to overwrite")
			}
			if err := resumed.RunFor(end - decoded.Now); err != nil {
				t.Fatalf("RunFor: %v", err)
			}
			resumed.Finish()
			if got := fingerprint(t, resumed); !bytes.Equal(want, got) {
				t.Fatalf("overwriting the decoded snapshot after restore changed the resumed run (%d values overwritten)", overwritten)
			}
		})
	}
}

// scribble zeroes every slice element and pointee reachable from v, each
// after what it holds, and returns how many it zeroed.
func scribble(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n += scribble(v.Elem()) + 1
			v.Elem().SetZero()
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			n += scribble(v.Index(i)) + 1
			v.Index(i).SetZero()
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += scribble(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += scribble(v.Field(i))
		}
	}
	return n
}
