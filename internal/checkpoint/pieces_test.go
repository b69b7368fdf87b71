package checkpoint_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/churn"
	"repro/internal/config"
	"repro/internal/id"
	"repro/internal/rocq"
	"repro/internal/world"
)

// TestDecodedSlicesArePieces decodes a churning world's checkpoint and
// holds the decoder to its piece contract. Every non-empty decoded slice
// is capped at its length: the decoder cuts neighbouring records' slices
// from one chunk, so without the cap an append to one record's Opinions,
// Walk, Index or Store.Subjects would write into the next record's.
func TestDecodedSlicesArePieces(t *testing.T) {
	cfg := config.Default()
	cfg.NumInit, cfg.NumTrans, cfg.Lambda, cfg.WaitPeriod, cfg.NumSM, cfg.Seed = 25, 3000, 0.05, 150, 3, 4
	cfg.Churn = churn.Params{Mu: 0.01, CrashFrac: 0.4, RejoinProb: 0.5, DowntimeMean: 250}
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	if err := w.RunFor(1500); err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := checkpoint.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	var s world.Snapshot
	if err := checkpoint.Unmarshal(body, &s); err != nil {
		t.Fatal(err)
	}

	if n := uncapped(t, reflect.ValueOf(s), "Snapshot"); n < 100 {
		t.Fatalf("fixture: only %d non-empty slices decoded", n)
	}

	// neighbours appends to the first record that has the field and
	// requires the next record that has it to keep its contents.
	neighbours := func(field string, has func(r *world.PeerRecord) bool, grow func(r *world.PeerRecord), contents func(r *world.PeerRecord) any) {
		t.Helper()
		first := -1
		for i := range s.Peers {
			switch r := &s.Peers[i]; {
			case !has(r):
			case first < 0:
				first = i
			default:
				before := contents(r)
				grow(&s.Peers[first])
				if !reflect.DeepEqual(contents(r), before) {
					t.Errorf("appending to record %d's %s changed record %d's", first, field, i)
				}
				return
			}
		}
		t.Fatalf("fixture: fewer than two records have %s", field)
	}
	neighbours("Opinions",
		func(r *world.PeerRecord) bool { return len(r.Opinions) > 0 },
		func(r *world.PeerRecord) { _ = append(r.Opinions, rocq.PartnerRecord{Count: 99}) },
		func(r *world.PeerRecord) any { return slices.Clone(r.Opinions) })
	neighbours("Walk",
		func(r *world.PeerRecord) bool { return len(r.Walk) > 0 },
		func(r *world.PeerRecord) { _ = append(r.Walk, true, true) },
		func(r *world.PeerRecord) any { return slices.Clone(r.Walk) })
	neighbours("Index",
		func(r *world.PeerRecord) bool { return len(r.Index) > 0 },
		func(r *world.PeerRecord) { _ = append(r.Index, id.HashString("intruder")) },
		func(r *world.PeerRecord) any { return slices.Clone(r.Index) })
	neighbours("Store.Subjects",
		func(r *world.PeerRecord) bool { return r.Store != nil && len(r.Store.Subjects) > 0 },
		func(r *world.PeerRecord) { _ = append(r.Store.Subjects, rocq.SubjectRecord{Reports: 99}) },
		func(r *world.PeerRecord) any { return slices.Clone(r.Store.Subjects) })
}

// uncapped fails the test for every non-empty slice reachable from v
// whose capacity exceeds its length, naming its path, and returns how
// many non-empty slices it checked.
func uncapped(t *testing.T, v reflect.Value, path string) int {
	t.Helper()
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n += uncapped(t, v.Elem(), path)
		}
	case reflect.Slice:
		if v.Len() > 0 {
			n++
			if v.Cap() != v.Len() {
				t.Errorf("%s: len %d, cap %d", path, v.Len(), v.Cap())
			}
		}
		for i := 0; i < v.Len(); i++ {
			n += uncapped(t, v.Index(i), path+"[]")
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += uncapped(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	}
	return n
}
