package scenario

// Checkpoint-decoding fuzz: corrupt, truncated or version-skewed
// checkpoint files must be rejected with an error — never a panic, and
// never a silently restored partial state. The seed corpus is real
// sealed snapshots (both kinds) of three built-in scenarios, so the
// fuzzer starts from deep, structurally valid inputs.

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/rocq"
	"repro/internal/sim"
	"repro/internal/world"
)

// fuzzSeeds captures sealed snapshots of three built-in scenarios at an
// early tick, in both envelope kinds plus the bare body documents.
func fuzzSeeds(f *testing.F) (sealed [][]byte, bodies [][]byte) {
	f.Helper()
	// The three smallest built-ins: fuzz inputs are mutated whole, so
	// corpus bytes are the budget that matters.
	for _, name := range []string{"quickstart", "sm-wipeout", "api"} {
		spec, err := Get(name)
		if err != nil {
			f.Fatal(err)
		}
		r, err := spec.Start()
		if err != nil {
			f.Fatal(err)
		}
		if err := r.RunToTick(sim.Tick(200)); err != nil {
			f.Fatal(err)
		}
		st, err := r.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		runFile, err := st.Encode()
		if err != nil {
			f.Fatal(err)
		}
		ws, err := r.World().Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		worldFile, err := ws.Encode()
		if err != nil {
			f.Fatal(err)
		}
		sealed = append(sealed, runFile, worldFile)
		_, runBody, err := checkpoint.Open(runFile)
		if err != nil {
			f.Fatal(err)
		}
		_, worldBody, err := checkpoint.Open(worldFile)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, runBody, worldBody)
	}
	return sealed, bodies
}

// FuzzCheckpointDecode drives the whole untrusted-file path: envelope,
// body, restore. Any outcome but a clean error or a working restore is
// a bug.
func FuzzCheckpointDecode(f *testing.F) {
	sealed, _ := fuzzSeeds(f)
	for _, s := range sealed {
		f.Add(s)
	}
	// A bare magic (a truncated envelope) and a sound envelope around an
	// empty world snapshot, which decodes but cannot restore.
	f.Add([]byte(checkpoint.Magic))
	empty, err := checkpoint.Seal(checkpoint.KindWorld, &world.Snapshot{Version: world.SnapshotVersion})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, err := checkpoint.Open(data)
		if err != nil {
			return
		}
		switch kind {
		case checkpoint.KindWorld:
			snap, err := world.DecodeSnapshotBody(body)
			if err != nil {
				return
			}
			_, _ = world.Restore(snap)
		case checkpoint.KindScenario:
			st, err := DecodeRunStateBody(body)
			if err != nil {
				return
			}
			_, _ = Resume(st)
		}
	})
}

// sealedBody seals a world snapshot and returns the body of the file.
func sealedBody(f *testing.F, s *world.Snapshot) []byte {
	f.Helper()
	data, err := checkpoint.Seal(checkpoint.KindWorld, s)
	if err != nil {
		f.Fatal(err)
	}
	_, body, err := checkpoint.Open(data)
	if err != nil {
		f.Fatal(err)
	}
	return body
}

// storeWith returns the snapshot's first store whose state satisfies
// pred.
func storeWith(f *testing.F, s *world.Snapshot, pred func(*rocq.StoreState) bool) *rocq.StoreState {
	f.Helper()
	for i := range s.Peers {
		if st := s.Peers[i].Store; st != nil && pred(st) {
			return st
		}
	}
	f.Fatal("seed snapshot holds no matching store")
	return nil
}

// FuzzSnapshotBody skips the envelope digest (which rejects almost every
// mutation) and fuzzes the body documents directly, so the decoder and
// restore validation see structurally interesting corruption.
func FuzzSnapshotBody(f *testing.F) {
	_, bodies := fuzzSeeds(f)
	for _, b := range bodies {
		f.Add(b)
	}
	f.Add(sealedBody(f, &world.Snapshot{Version: 1}))
	// Hostile records, cut from a real snapshot so they pass the decoder
	// and reach Restore, which must refuse each: a second copy of a peer;
	// the last live peer marked departed while it still hosts its store; a
	// placement walk cut to one replica, which neither replays to numSM
	// managers nor is the ring's padded walk; then ROCQ records, a store
	// listing one subject twice, a store listing one reporter twice, and a
	// partner record with count 0 and sum 1, whose next Record would read
	// an opinion of 2; a live peer without a signer in a signing world,
	// which would receive no bus message; and every store dropped, so a
	// placement's manager hosts none.
	lastLive := func(f *testing.F, s *world.Snapshot) *world.PeerRecord {
		for i := len(s.Peers) - 1; i >= 0; i-- {
			if !s.Peers[i].Departed {
				return &s.Peers[i]
			}
		}
		f.Fatal("seed snapshot holds no live peer")
		return nil
	}
	for i, mutate := range []func(s *world.Snapshot){
		func(s *world.Snapshot) { s.Peers = append(s.Peers, s.Peers[len(s.Peers)-1]) },
		func(s *world.Snapshot) {
			rec := lastLive(f, s)
			if rec.Store == nil {
				f.Fatal("the seed snapshot's last live peer hosts no store")
			}
			rec.Departed = true
		},
		func(s *world.Snapshot) {
			for i := range s.Peers {
				if len(s.Peers[i].Walk) > 1 {
					s.Peers[i].Walk = s.Peers[i].Walk[:1]
					return
				}
			}
			f.Fatal("seed snapshot holds no placement")
		},
		func(s *world.Snapshot) {
			st := storeWith(f, s, func(st *rocq.StoreState) bool { return len(st.Subjects) > 0 })
			st.Subjects = append(st.Subjects, st.Subjects[len(st.Subjects)-1])
		},
		func(s *world.Snapshot) {
			st := storeWith(f, s, func(st *rocq.StoreState) bool { return len(st.Cred) > 0 })
			st.Cred = append([]rocq.CredRecord{st.Cred[0]}, st.Cred...)
		},
		func(s *world.Snapshot) {
			for i := range s.Peers {
				if ops := s.Peers[i].Opinions; len(ops) > 0 {
					ops[0].Count, ops[0].Sum = 0, 1
					return
				}
			}
			f.Fatal("seed snapshot holds no opinions")
		},
		func(s *world.Snapshot) { lastLive(f, s).Signer = nil },
		func(s *world.Snapshot) {
			for i := range s.Peers {
				s.Peers[i].Store = nil
			}
		},
	} {
		s, err := world.DecodeSnapshotBody(bodies[1])
		if err != nil {
			f.Fatal(err)
		}
		mutate(s)
		if _, err := world.Restore(s); err == nil {
			f.Fatalf("Restore accepted hostile seed %d", i)
		}
		f.Add(sealedBody(f, s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if st, err := DecodeRunStateBody(body); err == nil {
			_, _ = Resume(st)
		}
		if snap, err := world.DecodeSnapshotBody(body); err == nil {
			_, _ = world.Restore(snap)
		}
	})
}
