package rocq

import (
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/id"
)

func TestExportAdoptRoundTrip(t *testing.T) {
	src := NewStore(DefaultParams())
	subject := id.FromUint64(1)
	src.Init(subject, 0.8)
	src.Report(id.FromUint64(2), subject, Opinion{Value: 1, Quality: 0.9, Count: 5})
	snap, ok := src.Export(subject)
	if !ok {
		t.Fatal("export of a known subject failed")
	}
	want, _ := src.Query(subject)
	if got := snap.Value(); got != want {
		t.Fatalf("snapshot value %v, store reads %v", got, want)
	}

	dst := NewStore(DefaultParams())
	ref := dst.Ref(subject) // a pre-existing handle must survive adoption
	dst.Adopt(subject, snap)
	if got, ok := dst.Query(subject); !ok || got != want {
		t.Fatalf("adopted read %v (%v), want %v", got, ok, want)
	}
	if got, ok := ref.Query(); !ok || got != want {
		t.Fatalf("pre-adoption Ref reads %v (%v), want %v", got, ok, want)
	}
	// Adoption carries the evidence, not just the value: further reports
	// fold in with the migrated weight behind them.
	dst.Report(id.FromUint64(3), subject, Opinion{Value: 0, Quality: 1, Count: 1})
	v1, _ := dst.Query(subject)
	if v1 >= want {
		t.Fatalf("negative report did not move the adopted aggregate (%v -> %v)", want, v1)
	}
}

func TestExportUnknownSubject(t *testing.T) {
	s := NewStore(DefaultParams())
	if _, ok := s.Export(id.FromUint64(9)); ok {
		t.Fatal("export of an unknown subject succeeded")
	}
	s.Ref(id.FromUint64(9)) // placeholder slot, no evidence
	if _, ok := s.Export(id.FromUint64(9)); ok {
		t.Fatal("export of a placeholder slot succeeded")
	}
}

func TestSubjectIDsSortedAndPresentOnly(t *testing.T) {
	s := NewStore(DefaultParams())
	for _, v := range []uint64{5, 1, 9, 3} {
		s.Init(id.FromUint64(v), 0.5)
	}
	s.Ref(id.FromUint64(7)) // placeholder: must not be listed
	got := s.SubjectIDs(nil)
	want := []uint64{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("SubjectIDs() = %d entries, want %d", len(got), len(want))
	}
	for i, v := range want {
		if got[i] != id.FromUint64(v) {
			t.Fatalf("SubjectIDs()[%d] = %v, want %v", i, got[i].Short(), v)
		}
	}
}

func TestOnChangeObservesEveryMutation(t *testing.T) {
	handles := arena.NewOrdinals()
	s := NewStoreOn(DefaultParams(), handles)
	var events []id.ID
	s.SetOnChange(func(subject arena.Ordinal) {
		pid, _ := handles.ID(subject)
		events = append(events, pid)
	})
	a, b := id.FromUint64(1), id.FromUint64(2)
	s.Init(a, 0.5)
	s.Report(id.FromUint64(3), a, Opinion{Value: 1, Quality: 0.5, Count: 1})
	s.Credit(b, 0.1)
	s.Debit(b, 0.05)
	s.Zero(b)
	s.Adopt(a, Snapshot{S: 1, W: 2, Reports: 1, Prior: 0.5})
	s.Forget(a)
	want := []id.ID{a, a, b, b, b, a, a}
	wantLen := len(want)
	if !slices.Equal(events, want) {
		t.Fatalf("observer saw %v, want %v", events, want)
	}
	// A placeholder Ref and plain queries are not mutations.
	s.Ref(id.FromUint64(4))
	s.Query(b)
	if len(events) != wantLen {
		t.Fatal("non-mutating calls notified the observer")
	}
}

func TestDropPlaceholderRecyclesOnlyEmptySlots(t *testing.T) {
	s := NewStore(DefaultParams())
	notified := 0
	s.SetOnChange(func(arena.Ordinal) { notified++ })
	empty, held := id.FromUint64(1), id.FromUint64(2)
	s.Ref(empty)
	s.Ref(held).Init(0.7)
	notified = 0

	s.DropPlaceholder(empty)
	s.DropPlaceholder(empty) // a padded placement repeats its managers
	s.DropPlaceholder(held)  // evidence stays: an orphaned replica, not a placeholder
	if live, capacity := s.ArenaSlots(); live != 1 || capacity != 2 {
		t.Fatalf("ArenaSlots() = (%d, %d), want (1, 2)", live, capacity)
	}
	if v, ok := s.Query(held); !ok || v != 0.7 {
		t.Fatalf("held subject reads %v (%v) after a drop, want 0.7", v, ok)
	}
	if notified != 0 {
		t.Fatalf("dropping placeholders notified the observer %d times", notified)
	}
	// The recycled slot went onto the free-list once: two new subjects
	// take the freed slot and one fresh slot, never the same slot twice.
	a, b := s.Ref(id.FromUint64(3)), s.Ref(id.FromUint64(4))
	if a == b {
		t.Fatal("a doubly recycled slot was handed to two subjects")
	}
	if _, capacity := s.ArenaSlots(); capacity != 3 {
		t.Fatalf("capacity %d after reuse, want 3", capacity)
	}
}
