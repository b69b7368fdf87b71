package rocq

import (
	"math"
	"reflect"
	"strings"
	"testing"
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

func TestStoreStateRoundTrip(t *testing.T) {
	st := sampleStore().ExportState()
	s := NewStore(DefaultParams())
	if err := s.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if got := s.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("export after restore differs:\n got %+v\nwant %+v", got, st)
	}
}

// TestStoreRestoreRejectsHostileStates feeds RestoreState states no
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
		st := sampleStore().ExportState()
		tc.mutate(&st)
		s := sampleStore()
		before := s.ExportState()
		err := s.RestoreState(st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RestoreState error = %v, want one mentioning %q", tc.name, err, tc.want)
			continue
		}
		if got := s.ExportState(); !reflect.DeepEqual(got, before) {
			t.Errorf("%s: a refused restore modified the store", tc.name)
		}
	}
}

// TestStoreRestoreAcceptsBounds restores evidence on the edges of the
// bounds RestoreState enforces, all reachable by a run. S one ulp above
// W + PriorWeight is among them: floating-point rounding can put
// a legitimate S there, so restore must not bound S from above.
func TestStoreRestoreAcceptsBounds(t *testing.T) {
	p := DefaultParams()
	st := StoreState{
		Subjects: []SubjectRecord{{Subject: pid(1), S: 0, W: 0, Reports: 0}, {Subject: pid(2), S: math.Nextafter(p.PriorWeight, 1), W: 0, Reports: 0}},
		Cred:     []CredRecord{{Reporter: pid(3), Cred: p.CredMin}, {Reporter: pid(4), Cred: 1}},
		Reports:  0,
	}
	s := NewStore(p)
	if err := s.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
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
	recs := b.ExportState()
	c := NewOpinionBook(DefaultParams())
	if err := c.RestoreState(recs); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if got := c.ExportState(); !reflect.DeepEqual(got, recs) {
		t.Fatalf("export after restore differs:\n got %+v\nwant %+v", got, recs)
	}
}

// TestOpinionBookRestoreRejectsHostileRecords feeds RestoreState partner
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
		b := NewOpinionBook(DefaultParams())
		b.Record(pid(7), 1)
		err := b.RestoreState(tc.recs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RestoreState error = %v, want one mentioning %q", tc.name, err, tc.want)
			continue
		}
		if b.Partners() != 1 {
			t.Errorf("%s: a refused restore modified the book", tc.name)
		}
	}
}
