package rocq

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arena"
)

// sampleStore builds a store with evidence for three subjects and
// credibilities for three reporters.
func sampleStore() *Store {
	s := NewStore(DefaultParams())
	for _, v := range []uint64{3, 1, 2} {
		s.Init(pid(v), 0.6)
	}
	for _, r := range []uint64{9, 7, 8} {
		s.Report(pid(r), pid(1), Opinion{Value: 1, Quality: 0.8, Count: 3})
	}
	return s
}

// exportStore and exportBook export into tables of their own.
func exportStore(s *Store) StoreState {
	st, _, _ := s.ExportState(nil, nil)
	return st
}

func exportBook(b *OpinionBook) []PartnerRecord {
	recs, _ := b.ExportState(nil)
	return recs
}

// restorer returns a restorer with a handle table of its own and no
// arrays sized up front, so each store and book gets arrays of its own.
func restorer() *Restorer { return NewRestorer(DefaultParams(), arena.NewOrdinals(), RestoreSizes{}) }

func TestStoreStateRoundTrip(t *testing.T) {
	st := exportStore(sampleStore())
	s, err := restorer().Store(st)
	if err != nil {
		t.Fatalf("Store: %v", err)
	}
	if got := exportStore(s); !reflect.DeepEqual(got, st) {
		t.Fatalf("export after restore differs:\n got %+v\nwant %+v", got, st)
	}
}

// TestRestoredPiecesStayApart restores two stores and two books from one
// restorer sized exactly for them, so each column is a piece of an array
// the other's column is cut from too, then grows every column of the
// first: the second must export exactly what it restored. An uncapped
// piece would let the first store's growth write into the second's
// columns.
func TestRestoredPiecesStayApart(t *testing.T) {
	st := exportStore(sampleStore())
	b := NewOpinionBook(DefaultParams())
	for _, v := range []uint64{5, 2, 9} {
		b.Record(pid(v), 1)
	}
	recs := exportBook(b)
	r := NewRestorer(DefaultParams(), arena.NewOrdinals(), RestoreSizes{
		Stores: 2, Subjects: 2 * len(st.Subjects), Reporters: 2 * len(st.Cred),
		Books: 2, Partners: 2 * len(recs),
	})
	var stores [2]*Store
	var books [2]*OpinionBook
	for i := range stores {
		var err error
		if stores[i], err = r.Store(st); err != nil {
			t.Fatalf("Store: %v", err)
		}
		if books[i], err = r.Book(recs); err != nil {
			t.Fatalf("Book: %v", err)
		}
	}
	for _, v := range []uint64{4, 40, 0} {
		stores[0].Report(pid(v), pid(v+100), Opinion{Value: 0.5, Quality: 0.5, Count: 1})
		books[0].Record(pid(v+100), 0)
	}
	if got := exportStore(stores[1]); !reflect.DeepEqual(got, st) {
		t.Fatalf("growing one restored store changed its neighbour:\n got %+v\nwant %+v", got, st)
	}
	if got := exportBook(books[1]); !reflect.DeepEqual(got, recs) {
		t.Fatalf("growing one restored book changed its neighbour:\n got %+v\nwant %+v", got, recs)
	}
}

// TestStoreRestoreRejectsHostileStates feeds Restorer.Store states no
// export could have written. A duplicated subject used to restore as two
// subjects, a duplicated reporter silently kept the last value, and a
// subject with S 0 and W -PriorWeight restored a store whose Query
// returned NaN.
func TestStoreRestoreRejectsHostileStates(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(st *StoreState)
		want   string
	}{
		{"duplicate subject", func(st *StoreState) { st.Subjects = append(st.Subjects, st.Subjects[len(st.Subjects)-1]) }, "not strictly ascending"},
		{"descending subjects", func(st *StoreState) { st.Subjects[0], st.Subjects[1] = st.Subjects[1], st.Subjects[0] }, "not strictly ascending"},
		{"duplicate reporter", func(st *StoreState) {
			dup := st.Cred[0]
			dup.Cred = 0.1
			st.Cred = append([]CredRecord{dup}, st.Cred...)
		}, "not strictly ascending"},
		{"descending reporters", func(st *StoreState) { st.Cred[1], st.Cred[2] = st.Cred[2], st.Cred[1] }, "not strictly ascending"},
		{"weight cancelling the prior", func(st *StoreState) { st.Subjects[0].S, st.Subjects[0].W = 0, -DefaultParams().PriorWeight }, "want finite and non-negative"},
		{"negative weight", func(st *StoreState) { st.Subjects[1].W = -1e-300 }, "want finite and non-negative"},
		{"negative sum", func(st *StoreState) { st.Subjects[2].S = -0.25 }, "want finite and non-negative"},
		{"NaN sum", func(st *StoreState) { st.Subjects[0].S = math.NaN() }, "want finite and non-negative"},
		{"infinite weight", func(st *StoreState) { st.Subjects[0].W = math.Inf(1) }, "want finite and non-negative"},
		{"negative subject reports", func(st *StoreState) { st.Subjects[1].Reports = -1 }, "report count -1"},
		{"negative store reports", func(st *StoreState) { st.Reports = -3 }, "report count -3"},
		{"credibility above 1", func(st *StoreState) { st.Cred[0].Cred = 7 }, "outside [0.05, 1]"},
		{"credibility below the floor", func(st *StoreState) { st.Cred[2].Cred = DefaultParams().CredMin / 2 }, "outside [0.05, 1]"},
		{"NaN credibility", func(st *StoreState) { st.Cred[1].Cred = math.NaN() }, "outside [0.05, 1]"},
	}
	for _, tc := range cases {
		st := exportStore(sampleStore())
		tc.mutate(&st)
		s, err := restorer().Store(st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Store error = %v, want one mentioning %q", tc.name, err, tc.want)
			continue
		}
		if s != nil {
			t.Errorf("%s: a refused restore returned a store", tc.name)
		}
	}
}

// TestStoreRestoreAcceptsBounds restores evidence on the edges of the
// bounds Restorer.Store enforces, all reachable by a run. S one ulp above
// W + PriorWeight is among them: floating-point rounding can put
// a legitimate S there, so restore must not bound S from above.
func TestStoreRestoreAcceptsBounds(t *testing.T) {
	p := DefaultParams()
	st := StoreState{
		Subjects: []SubjectRecord{{Subject: pid(1), S: 0, W: 0, Reports: 0}, {Subject: pid(2), S: math.Nextafter(p.PriorWeight, 1), W: 0, Reports: 0}},
		Cred:     []CredRecord{{Reporter: pid(3), Cred: p.CredMin}, {Reporter: pid(4), Cred: 1}},
		Reports:  0,
	}
	s, err := restorer().Store(st)
	if err != nil {
		t.Fatalf("Store: %v", err)
	}
	if v, ok := s.Query(pid(2)); !ok || v != 1 {
		t.Fatalf("Query = %v, %v; want 1, true", v, ok)
	}
}

func TestOpinionBookStateRoundTrip(t *testing.T) {
	b := NewOpinionBook(DefaultParams())
	for i, v := range []uint64{5, 2, 5, 9} {
		b.Record(pid(v), float64(i%2))
	}
	recs := exportBook(b)
	c, err := restorer().Book(recs)
	if err != nil {
		t.Fatalf("Book: %v", err)
	}
	if got := exportBook(c); !reflect.DeepEqual(got, recs) {
		t.Fatalf("export after restore differs:\n got %+v\nwant %+v", got, recs)
	}
}

// TestOpinionBookRestoreRejectsHostileRecords feeds Restorer.Book partner
// records Record could not have produced. A record with Count 0 and
// Sum 1 used to restore, after which the next Record returned an opinion
// of 2 and the report carrying it panicked in the store.
func TestOpinionBookRestoreRejectsHostileRecords(t *testing.T) {
	cases := []struct {
		name string
		recs []PartnerRecord
		want string
	}{
		{"zero count", []PartnerRecord{{Partner: pid(1), Sum: 1, Count: 0}}, "count 0"},
		{"negative count", []PartnerRecord{{Partner: pid(1), Sum: 0, Count: -2}}, "count -2"},
		{"sum above count", []PartnerRecord{{Partner: pid(1), Sum: 3, Count: 2}}, "outside [0, 2]"},
		{"negative sum", []PartnerRecord{{Partner: pid(1), Sum: -0.5, Count: 2}}, "outside [0, 2]"},
		{"NaN sum", []PartnerRecord{{Partner: pid(1), Sum: math.NaN(), Count: 2}}, "outside [0, 2]"},
		{"duplicate partner", []PartnerRecord{{Partner: pid(1), Sum: 1, Count: 1}, {Partner: pid(1), Sum: 0, Count: 1}}, "not strictly ascending"},
		{"descending partners", []PartnerRecord{{Partner: pid(2), Sum: 1, Count: 1}, {Partner: pid(1), Sum: 0, Count: 1}}, "not strictly ascending"},
	}
	for _, tc := range cases {
		b, err := restorer().Book(tc.recs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Book error = %v, want one mentioning %q", tc.name, err, tc.want)
			continue
		}
		if b != nil {
			t.Errorf("%s: a refused restore returned a book", tc.name)
		}
	}
}
