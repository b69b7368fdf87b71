package rocq

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/id"
)

// oracle is an identifier-keyed model of one Store and one OpinionBook:
// plain maps, with the update rules written out afresh. It holds only
// what the reads can see, so placeholder slots have no counterpart.
type oracle struct {
	p        Params
	subjects map[id.ID]oracleSubject
	cred     map[id.ID]float64
	reports  int64
	partners map[id.ID]opinionState
}

type oracleSubject struct {
	s, w    float64
	reports int64
}

func newOracle(p Params) *oracle {
	return &oracle{p: p, subjects: map[id.ID]oracleSubject{}, cred: map[id.ID]float64{}, partners: map[id.ID]opinionState{}}
}

func (o *oracle) credibility(reporter id.ID) float64 {
	if c, ok := o.cred[reporter]; ok {
		return c
	}
	return o.p.CredInit
}

func (o *oracle) value(sub oracleSubject) float64 {
	return clamp01(sub.s / (sub.w + o.p.PriorWeight))
}

func (o *oracle) report(reporter, subject id.ID, op Opinion) {
	o.reports++
	c := o.credibility(reporter)
	sub := o.subjects[subject]
	w := c * op.Quality
	sub.s += w * op.Value
	sub.w += w
	if sub.w > o.p.WindowWeight {
		f := o.p.WindowWeight / sub.w
		sub.s *= f
		sub.w = o.p.WindowWeight
	}
	sub.reports++
	o.subjects[subject] = sub
	target := 1 - math.Abs(op.Value-o.value(sub))
	c += o.p.CredGain * (target - c)
	if c < o.p.CredMin {
		c = o.p.CredMin
	}
	o.cred[reporter] = clamp01(c)
}

func (o *oracle) adjust(subject id.ID, delta float64) {
	sub := o.subjects[subject]
	sub.s += delta * (sub.w + o.p.PriorWeight)
	if top := sub.w + o.p.PriorWeight; sub.s > top {
		sub.s = top
	}
	if sub.s < 0 {
		sub.s = 0
	}
	o.subjects[subject] = sub
}

func (o *oracle) record(partner id.ID, rating float64) Opinion {
	st := o.partners[partner]
	st.sum += rating
	st.count++
	o.partners[partner] = st
	return o.opinion(st)
}

func (o *oracle) opinion(st opinionState) Opinion {
	mean := st.sum / float64(st.count)
	saturation := float64(st.count) / (float64(st.count) + o.p.QualityHalf)
	consistency := 1 - 2*minf(mean, 1-mean)
	return Opinion{Value: mean, Quality: clamp01(saturation * (0.25 + 0.75*consistency)), Count: st.count}
}

func (o *oracle) exportState() StoreState {
	st := StoreState{Reports: o.reports}
	for subject, sub := range o.subjects {
		st.Subjects = append(st.Subjects, SubjectRecord{Subject: subject, S: sub.s, W: sub.w, Reports: sub.reports})
	}
	slices.SortFunc(st.Subjects, func(a, b SubjectRecord) int { return a.Subject.Cmp(b.Subject) })
	for reporter, c := range o.cred {
		st.Cred = append(st.Cred, CredRecord{Reporter: reporter, Cred: c})
	}
	slices.SortFunc(st.Cred, func(a, b CredRecord) int { return a.Reporter.Cmp(b.Reporter) })
	return st
}

func (o *oracle) exportPartners() []PartnerRecord {
	var out []PartnerRecord
	for partner, st := range o.partners {
		out = append(out, PartnerRecord{Partner: partner, Sum: st.sum, Count: st.count})
	}
	slices.SortFunc(out, func(a, b PartnerRecord) int { return a.Partner.Cmp(b.Partner) })
	return out
}

// oracleIDs are the identities a script draws from.
var oracleIDs = func() []id.ID {
	ids := make([]id.ID, 32)
	for i := range ids {
		ids[i] = id.HashString(fmt.Sprintf("oracle-%d", i))
	}
	return ids
}()

// internedTable returns a handle table holding the first n identities of
// the order key picks: i ↦ (mul·i + add) mod 32 with an odd mul, so each
// key byte gives its own permutation. The rest are numbered on first use.
func internedTable(key, n byte) *arena.Ordinals {
	table := arena.NewOrdinals()
	mul, add := int(key>>5)*2+1, int(key&31)
	for i := 0; i < int(n)%(len(oracleIDs)+1); i++ {
		table.Intern(oracleIDs[(mul*i+add)%len(oracleIDs)])
	}
	return table
}

// maxOracleSteps bounds one script, so a long fuzz input stays fast.
const maxOracleSteps = 400

// runOracleScript decodes script into steps over one shared handle table,
// applies each to a store and book and to the oracle, and compares every
// read after every step. Two header bytes pick the table's intern order;
// each step is four bytes: an operation and three arguments.
func runOracleScript(t *testing.T, script []byte) {
	p := DefaultParams()
	o := newOracle(p)
	var key, n byte
	if len(script) >= 2 {
		key, n, script = script[0], script[1], script[2:]
	}
	table := internedTable(key, n)
	store, book := NewStoreOn(p, table), NewOpinionBookOn(p, table)
	for step := 0; step < maxOracleSteps && len(script) >= 4; step++ {
		op, a, b, c := script[0], script[1], script[2], script[3]
		script = script[4:]
		x, y := oracleIDs[int(a)%len(oracleIDs)], oracleIDs[int(b)%len(oracleIDs)]
		opinion := Opinion{Value: float64(c&15) / 15, Quality: float64(c>>4) / 15}
		var what string
		switch op % 11 {
		case 0:
			what = "Report"
			store.Report(x, y, opinion)
			o.report(x, y, opinion)
		case 1:
			what = "Ref.ReportHandle"
			store.Ref(y).ReportHandle(table.Intern(x), opinion)
			o.report(x, y, opinion)
		case 2:
			what = "Credit"
			store.Credit(x, float64(c)/255)
			o.adjust(x, float64(c)/255)
		case 3:
			what = "Debit"
			store.Debit(x, float64(c)/255)
			o.adjust(x, -float64(c)/255)
		case 4:
			what = "Zero"
			store.Zero(x)
			sub := o.subjects[x]
			sub.s = 0
			o.subjects[x] = sub
		case 5:
			what = "Init"
			store.Init(x, float64(c)/255)
			o.subjects[x] = oracleSubject{s: clamp01(float64(c)/255) * (initWeight + p.PriorWeight), w: initWeight}
		case 6:
			what = "Adopt"
			sn, ok := store.Export(y)
			if !ok || c&1 == 1 {
				sn = Snapshot{S: float64(b) / 64, W: float64(c) / 4, Reports: int64(b ^ c), Prior: p.PriorWeight}
			}
			store.Adopt(x, sn)
			o.subjects[x] = oracleSubject{s: sn.S, w: sn.W, reports: sn.Reports}
		case 7:
			what = "Forget"
			store.Forget(x)
			delete(o.subjects, x)
		case 8:
			// A Ref on an unknown subject leaves a placeholder slot, which
			// DropPlaceholder recycles; neither is visible to any read.
			if c&1 == 0 {
				what = "Ref"
				store.Ref(x)
			} else {
				what = "DropPlaceholder"
				store.DropPlaceholder(x)
			}
		case 9:
			what = "Record"
			rating := float64(c%5) / 4
			got, want := book.Record(x, rating), o.record(x, rating)
			if !sameOpinion(got, want) {
				t.Fatalf("step %d Record(%s, %v) = %+v, oracle %+v", step, x.Short(), rating, got, want)
			}
		case 10:
			what = "restore"
			st, recs := exportStore(store), exportBook(book)
			table = internedTable(b, c)
			// Sized exactly, as a world restore sizes its restorer: every
			// column is a piece capped at its length, which the steps
			// after grow out of.
			r := NewRestorer(p, table, RestoreSizes{Stores: 1, Subjects: len(st.Subjects), Reporters: len(st.Cred), Books: 1, Partners: len(recs)})
			var err error
			if store, err = r.Store(st); err != nil {
				t.Fatalf("step %d: store restore: %v", step, err)
			}
			if book, err = r.Book(recs); err != nil {
				t.Fatalf("step %d: book restore: %v", step, err)
			}
		}
		compareWithOracle(t, step, what, store, book, o)
	}
}

// compareWithOracle checks every identifier-keyed read of the store and
// book against the oracle, bit for bit.
func compareWithOracle(t *testing.T, step int, what string, store *Store, book *OpinionBook, o *oracle) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s", step, what, fmt.Sprintf(format, args...))
	}
	if got, want := store.Subjects(), len(o.subjects); got != want {
		fail("Subjects() = %d, oracle %d", got, want)
	}
	if got, want := book.Partners(), len(o.partners); got != want {
		fail("Partners() = %d, oracle %d", got, want)
	}
	for _, x := range oracleIDs {
		sub, known := o.subjects[x]
		want := 0.0
		if known {
			want = o.value(sub)
		}
		if got, ok := store.Query(x); ok != known || math.Float64bits(got) != math.Float64bits(want) {
			fail("Query(%s) = %v, %v; oracle %v, %v", x.Short(), got, ok, want, known)
		}
		if got := store.Known(x); got != known {
			fail("Known(%s) = %v, oracle %v", x.Short(), got, known)
		}
		if got, want := store.Credibility(x), o.credibility(x); math.Float64bits(got) != math.Float64bits(want) {
			fail("Credibility(%s) = %v, oracle %v", x.Short(), got, want)
		}
		st, had := o.partners[x]
		var wantOp Opinion
		if had {
			wantOp = o.opinion(st)
		}
		if got, ok := book.Opinion(x); ok != had || !sameOpinion(got, wantOp) {
			fail("Opinion(%s) = %+v, %v; oracle %+v, %v", x.Short(), got, ok, wantOp, had)
		}
	}
	got, want := exportStore(store), o.exportState()
	if got.Reports != want.Reports || len(got.Subjects) != len(want.Subjects) || len(got.Cred) != len(want.Cred) {
		fail("ExportState = %+v, oracle %+v", got, want)
	}
	for i, g := range got.Subjects {
		w := want.Subjects[i]
		if g.Subject != w.Subject || g.Reports != w.Reports || math.Float64bits(g.S) != math.Float64bits(w.S) || math.Float64bits(g.W) != math.Float64bits(w.W) {
			fail("exported subject %d = %+v, oracle %+v", i, g, w)
		}
	}
	for i, g := range got.Cred {
		if w := want.Cred[i]; g.Reporter != w.Reporter || math.Float64bits(g.Cred) != math.Float64bits(w.Cred) {
			fail("exported credibility %d = %+v, oracle %+v", i, g, w)
		}
	}
	ids := store.SubjectIDs(nil)
	if len(ids) != len(want.Subjects) {
		fail("SubjectIDs() lists %d subjects, oracle %d", len(ids), len(want.Subjects))
	}
	for i, x := range ids {
		if x != want.Subjects[i].Subject {
			fail("SubjectIDs()[%d] = %s, oracle %s", i, x.Short(), want.Subjects[i].Subject.Short())
		}
	}
	gotP, wantP := exportBook(book), o.exportPartners()
	if len(gotP) != len(wantP) {
		fail("book exports %d partners, oracle %d", len(gotP), len(wantP))
	}
	for i, g := range gotP {
		if w := wantP[i]; g.Partner != w.Partner || g.Count != w.Count || math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
			fail("exported partner %d = %+v, oracle %+v", i, g, w)
		}
	}
}

func sameOpinion(a, b Opinion) bool {
	return a.Count == b.Count && math.Float64bits(a.Value) == math.Float64bits(b.Value) && math.Float64bits(a.Quality) == math.Float64bits(b.Quality)
}

// oracleSeeds are the fuzz target's seed corpus: short edge cases, a
// structured script that fills every table and restores it under other
// intern orders, and pseudo-random scripts from a fixed LCG.
func oracleSeeds() [][]byte {
	seeds := [][]byte{
		nil,
		{0, 0},
		{7, 32, 0, 1, 2, 0x88},
		{200, 5, 10, 0, 3, 7, 10, 9, 31, 0},
	}
	// Every identity reports on and records experience with others, a
	// few subjects are adjusted, forgotten and re-resolved, and the
	// tables go through three restores under different intern orders.
	structured := []byte{3, 12}
	for round := 0; round < 3; round++ {
		for i := 0; i < 32; i++ {
			r, s := byte(i*7+round), byte(i*13+5)
			structured = append(structured, byte(round), r, s, byte(i*29+round*3), 9, s, r, byte(i+round))
		}
		structured = append(structured,
			2, byte(round+1), 0, 40, 3, byte(round+2), 0, 90, 4, byte(round*5), 0, 0,
			7, byte(round*11), 0, 0, 8, byte(round*11), 0, 0, 8, byte(round*11), 0, 1,
			6, byte(round+20), byte(round+3), 2, 5, byte(round+9), 0, 200,
			10, 0, byte(round*83+17), byte(round*9+5))
	}
	seeds = append(seeds, structured)
	x := uint64(1)
	for n := 0; n < 4; n++ {
		script := make([]byte, 2+4*300)
		for i := range script {
			x = x*6364136223846793005 + 1442695040888963407
			script[i] = byte(x >> 56)
		}
		seeds = append(seeds, script)
	}
	return seeds
}

// FuzzStoreMatchesOracle runs fuzzed scripts of reports, adjustments,
// forgets, placeholder drops, recorded experience and export/restore
// round trips over a store and book that share one handle table, and
// checks every read against an identifier-keyed map oracle after every
// step. TestHandlesNeverReachOutput compares two intern orders of the
// same implementation, so a search or ordering bug both sides share
// would pass it; the oracle shares no table code with the store.
func FuzzStoreMatchesOracle(f *testing.F) {
	for _, seed := range oracleSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runOracleScript)
}
