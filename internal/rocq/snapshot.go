package rocq

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/arena"
	"repro/internal/id"
)

// Checkpoint support. A Store's behaviour is fully determined by the
// evidence in its present slots, its per-reporter credibilities and the
// total report counter; non-present placeholder slots exist only to give
// Refs stable addresses and are recreated on demand after a restore, so
// they are not captured. Every handle-keyed table is exported in
// ascending identifier order, which makes the encoding deterministic —
// the same store always serializes to the same bytes.

// SubjectRecord is the serializable evidence slot for one subject.
type SubjectRecord struct {
	Subject id.ID
	S       float64
	W       float64
	Reports int64
}

// CredRecord is the serializable credibility the store holds for one
// reporter.
type CredRecord struct {
	Reporter id.ID
	Cred     float64
}

// StoreState is the serializable state of a score-manager store.
type StoreState struct {
	Subjects []SubjectRecord
	Cred     []CredRecord
	Reports  int64
}

// ExportState captures the store's evidence, credibilities and report
// counter in deterministic order. It appends the records to the tables
// subjects and cred and returns them extended; the state's slices are the
// records it appended, capped at their length (arena.Piece), so a
// snapshot cuts every store's records from one array of each kind. Nil
// tables give the state arrays of its own.
func (s *Store) ExportState(subjects []SubjectRecord, cred []CredRecord) (StoreState, []SubjectRecord, []CredRecord) {
	out := StoreState{Reports: s.reports}
	from := len(subjects)
	for i := range s.slots {
		if sl := &s.slots[i]; sl.present {
			subjects = append(subjects, SubjectRecord{Subject: s.subjectID(sl), S: sl.s, W: sl.w, Reports: sl.reports})
		}
	}
	out.Subjects = arena.Piece(subjects, from)
	slices.SortFunc(out.Subjects, func(a, b SubjectRecord) int { return a.Subject.Cmp(b.Subject) })
	from = len(cred)
	for _, e := range s.creds {
		pid, _ := s.handles.ID(e.reporter)
		cred = append(cred, CredRecord{Reporter: pid, Cred: e.cred.Float64()})
	}
	out.Cred = arena.Piece(cred, from)
	slices.SortFunc(out.Cred, func(a, b CredRecord) int { return a.Reporter.Cmp(b.Reporter) })
	return out, subjects, cred
}

// Reporters returns the number of reporters the store holds a
// credibility for: the credibility records ExportState writes.
func (s *Store) Reporters() int { return len(s.creds) }

// Restorer rebuilds the stores and opinion books of a checkpoint on one
// handle table. Every store, book and column it makes is cut from one
// array of its kind (arena.Take), sized up front by the counts
// NewRestorer is given, so restoring a world allocates a fixed number of
// arrays instead of several objects per store and book. Each column is
// filled in the checkpoint's identifier order and then sorted by handle
// in place. Nothing is ever recycled into those arrays: a column grows
// out of its piece into an array of its own on its first insert, and a
// store or book nothing references any more keeps its share alive only
// as long as the rest of its array. A count too small is no error; what
// does not fit gets an array of its own.
type Restorer struct {
	params   *Params
	handles  *arena.Ordinals
	stores   []Store
	books    []OpinionBook
	index    []indexEntry
	slots    []subjectSlot
	creds    []credEntry
	partners []partnerEntry
}

// RestoreSizes counts what a Restorer rebuilds: Stores stores holding
// Subjects subject records and Reporters credibility records in all, and
// Books opinion books holding Partners partner records.
type RestoreSizes struct {
	Stores, Subjects, Reporters int
	Books, Partners             int
}

// NewRestorer returns a restorer of stores and books with the given
// parameters, numbering identities in the given shared handle table, with
// arrays sized for n.
func NewRestorer(p Params, handles *arena.Ordinals, n RestoreSizes) *Restorer {
	if err := p.Validate(); err != nil {
		//replend:allow nopanic construction-time misuse guard: params are validated by config before any run starts
		panic(err)
	}
	return &Restorer{
		params:   sharedParams(p),
		handles:  handles,
		stores:   make([]Store, n.Stores),
		books:    make([]OpinionBook, n.Books),
		index:    make([]indexEntry, n.Subjects),
		slots:    make([]subjectSlot, n.Subjects),
		creds:    make([]credEntry, n.Reporters),
		partners: make([]partnerEntry, n.Partners),
	}
}

// Store rebuilds a store from its checkpointed evidence, credibilities
// and report counter. A state no run could have written is refused with
// an error: subjects or reporters not in strictly ascending order (which
// covers duplicates), a credibility outside [CredMin, 1], a negative or
// non-finite S or W, or a negative report count. Reports add non-negative
// weight, adjustments clamp S at 0 and the credibility update floors and
// clamps, so every run stays inside these bounds; a restored state
// outside them could make Query return NaN.
func (r *Restorer) Store(st StoreState) (*Store, error) {
	if err := id.Ascending(st.Subjects, func(r SubjectRecord) id.ID { return r.Subject }, id.ID.Cmp); err != nil {
		return nil, fmt.Errorf("rocq: restore: subject %w", err)
	}
	if err := id.Ascending(st.Cred, func(r CredRecord) id.ID { return r.Reporter }, id.ID.Cmp); err != nil {
		return nil, fmt.Errorf("rocq: restore: reporter %w", err)
	}
	if st.Reports < 0 {
		return nil, fmt.Errorf("rocq: restore: report count %d is negative", st.Reports)
	}
	for _, rec := range st.Subjects {
		switch {
		case !nonNegative(rec.S) || !nonNegative(rec.W):
			return nil, fmt.Errorf("rocq: restore: subject %s has S %v, W %v, want finite and non-negative", rec.Subject.Short(), rec.S, rec.W)
		case rec.Reports < 0:
			return nil, fmt.Errorf("rocq: restore: subject %s has report count %d, want non-negative", rec.Subject.Short(), rec.Reports)
		}
	}
	for _, rec := range st.Cred {
		if !(rec.Cred >= r.params.CredMin && rec.Cred <= 1) {
			return nil, fmt.Errorf("rocq: restore: reporter %s has credibility %v outside [%v, 1]", rec.Reporter.Short(), rec.Cred, r.params.CredMin)
		}
	}
	n := len(st.Subjects)
	s := &arena.Take(&r.stores, 1)[0]
	s.params, s.handles = r.params, r.handles
	s.index, s.slots = arena.Take(&r.index, n), arena.Take(&r.slots, n)
	s.known, s.reports = n, st.Reports
	for i, rec := range st.Subjects {
		h := r.handles.Intern(rec.Subject)
		s.index[i] = indexEntry{subject: h, slot: int32(i)}
		s.slots[i] = subjectSlot{s: rec.S, w: rec.W, reports: rec.Reports, subject: h, present: true}
	}
	// Records arrive in identifier order, and the table may have numbered
	// these identities in any order: sort each table by handle once.
	slices.SortFunc(s.index, func(a, b indexEntry) int { return bySubject(a, b.subject) })
	s.creds = arena.Take(&r.creds, len(st.Cred))
	for i, rec := range st.Cred {
		s.creds[i] = credEntry{reporter: r.handles.Intern(rec.Reporter), cred: arena.Float64Word(rec.Cred)}
	}
	slices.SortFunc(s.creds, func(a, b credEntry) int { return byReporter(a, b.reporter) })
	return s, nil
}

// nonNegative reports whether v is a finite number no less than 0.
func nonNegative(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// PartnerRecord is the serializable first-hand experience a peer holds
// about one partner.
type PartnerRecord struct {
	Partner id.ID
	Sum     float64
	Count   int64
}

// ExportState captures the opinion book's experience in ascending partner
// order. It appends the records to the table recs and returns them, a
// piece capped at their length, with the extended table.
func (b *OpinionBook) ExportState(recs []PartnerRecord) ([]PartnerRecord, []PartnerRecord) {
	from := len(recs)
	for i := range b.partners {
		e := &b.partners[i]
		pid, _ := b.handles.ID(e.partner)
		recs = append(recs, PartnerRecord{Partner: pid, Sum: e.sum.Float64(), Count: e.count.Int64()})
	}
	out := arena.Piece(recs, from)
	slices.SortFunc(out, func(a, b PartnerRecord) int { return a.Partner.Cmp(b.Partner) })
	return out, recs
}

// Book rebuilds an opinion book from its checkpointed experience. Records
// Record could not have produced — partners not in strictly ascending
// order, a count below one, or a sum outside [0, count] — are refused with
// an error: the next Record would otherwise return an opinion outside
// [0,1].
func (r *Restorer) Book(recs []PartnerRecord) (*OpinionBook, error) {
	if err := id.Ascending(recs, func(r PartnerRecord) id.ID { return r.Partner }, id.ID.Cmp); err != nil {
		return nil, fmt.Errorf("rocq: restore: partner %w", err)
	}
	for _, rec := range recs {
		switch {
		case rec.Count < 1:
			return nil, fmt.Errorf("rocq: restore: partner %s has count %d, want at least 1", rec.Partner.Short(), rec.Count)
		case !(rec.Sum >= 0 && rec.Sum <= float64(rec.Count)):
			return nil, fmt.Errorf("rocq: restore: partner %s has sum %v outside [0, %d]", rec.Partner.Short(), rec.Sum, rec.Count)
		}
	}
	b := &arena.Take(&r.books, 1)[0]
	b.params, b.handles = r.params, r.handles
	b.partners = arena.Take(&r.partners, len(recs))
	for i, rec := range recs {
		b.partners[i] = partnerEntry{partner: r.handles.Intern(rec.Partner), sum: arena.Float64Word(rec.Sum), count: arena.Int64Word(rec.Count)}
	}
	slices.SortFunc(b.partners, func(a, b partnerEntry) int { return byPartner(a, b.partner) })
	return b, nil
}
