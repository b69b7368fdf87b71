package rocq

import (
	"reflect"
	"testing"

	"repro/internal/arena"
	"repro/internal/id"
)

// TestHandlesNeverReachOutput builds two store-and-book pairs, each on
// its own handle table, with the same identities interned in opposite
// orders, so every identity carries a different handle on each side.
// The same reports, credits and forgets must leave both sides
// indistinguishable through every identifier-keyed read and export.
func TestHandlesNeverReachOutput(t *testing.T) {
	ids := make([]id.ID, 12)
	for i := range ids {
		ids[i] = id.HashString(string(rune('a' + i)))
	}
	type side struct {
		store *Store
		book  *OpinionBook
	}
	build := func(order []id.ID) side {
		table := arena.NewOrdinals()
		for _, pid := range order {
			table.Intern(pid)
		}
		return side{NewStoreOn(DefaultParams(), table), NewOpinionBookOn(DefaultParams(), table)}
	}
	reversed := make([]id.ID, len(ids))
	for i, pid := range ids {
		reversed[len(ids)-1-i] = pid
	}
	sides := []side{build(ids), build(reversed)}

	for _, sd := range sides {
		for step := 0; step < 200; step++ {
			rater, subject := ids[step%len(ids)], ids[(step*7+3)%len(ids)]
			if rater == subject {
				continue
			}
			op := sd.book.Record(subject, float64(step%3%2))
			if step%2 == 0 {
				sd.store.Report(rater, subject, op)
			} else {
				sd.store.Ref(subject).Report(rater, op)
			}
			switch step % 50 {
			case 10:
				sd.store.Credit(ids[step%5], 0.2)
			case 20:
				sd.store.Debit(ids[step%4], 0.1)
			case 49:
				sd.store.Forget(ids[step%len(ids)])
			}
		}
	}

	a, b := sides[0], sides[1]
	if st := exportStore(a.store); len(st.Subjects) == 0 || len(st.Cred) == 0 || a.book.Partners() == 0 {
		t.Fatalf("fixture: %d subjects, %d reporters, %d partners", len(st.Subjects), len(st.Cred), a.book.Partners())
	}
	if got, want := exportStore(b.store), exportStore(a.store); !reflect.DeepEqual(got, want) {
		t.Fatalf("store exports differ across handle orders:\n%+v\n%+v", got, want)
	}
	if got, want := exportBook(b.book), exportBook(a.book); !reflect.DeepEqual(got, want) {
		t.Fatalf("opinion book exports differ across handle orders:\n%+v\n%+v", got, want)
	}
	if got, want := b.store.SubjectIDs(nil), a.store.SubjectIDs(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("SubjectIDs differ across handle orders: %v vs %v", got, want)
	}
	for _, pid := range ids {
		if ca, cb := a.store.Credibility(pid), b.store.Credibility(pid); ca != cb {
			t.Errorf("%s: credibility %v vs %v", pid.Short(), ca, cb)
		}
		va, oka := a.store.Query(pid)
		vb, okb := b.store.Query(pid)
		if va != vb || oka != okb {
			t.Errorf("%s: query (%v, %v) vs (%v, %v)", pid.Short(), va, oka, vb, okb)
		}
		oa, oka := a.book.Opinion(pid)
		ob, okb := b.book.Opinion(pid)
		if oa != ob || oka != okb {
			t.Errorf("%s: opinion (%+v, %v) vs (%+v, %v)", pid.Short(), oa, oka, ob, okb)
		}
	}
}

// TestForgetKeepsReporterCredibility pins why handles are never
// recycled: forgetting a subject drops its evidence but not the
// credibility the store learned for it as a reporter, so its handle
// stays in use after the forget.
func TestForgetKeepsReporterCredibility(t *testing.T) {
	s := NewStore(DefaultParams())
	x, y := pid(1), pid(2)
	s.Init(x, 0.9)
	s.Init(y, 0.9)
	for i := 0; i < 5; i++ {
		s.Report(x, y, Opinion{Value: 0, Quality: 1, Count: 1})
	}
	cred := s.Credibility(x)
	if cred == DefaultParams().CredInit {
		t.Fatal("fixture: reports left x's credibility at its initial value")
	}
	s.Forget(x)
	if s.Known(x) {
		t.Fatal("forgotten subject still known")
	}
	if got := s.Credibility(x); got != cred {
		t.Fatalf("credibility of a forgotten reporter = %v, want %v", got, cred)
	}
	if got := exportStore(s).Cred; len(got) != 1 || got[0].Reporter != x || got[0].Cred != cred {
		t.Fatalf("exported credibilities %+v, want x at %v", got, cred)
	}
}
