package rocq

import (
	"cmp"
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
// counter in deterministic order.
func (s *Store) ExportState() StoreState {
	out := StoreState{Reports: s.reports}
	if s.known > 0 {
		out.Subjects = make([]SubjectRecord, 0, s.known)
		for i := range s.meta {
			if s.meta[i].present {
				out.Subjects = append(out.Subjects, SubjectRecord{Subject: s.subjectID(int32(i)), S: s.s[i], W: s.w[i], Reports: s.meta[i].reports})
			}
		}
		slices.SortFunc(out.Subjects, func(a, b SubjectRecord) int { return a.Subject.Cmp(b.Subject) })
	}
	if len(s.credH) > 0 {
		out.Cred = make([]CredRecord, len(s.credH))
		for i, reporter := range s.credH {
			pid, _ := s.handles.ID(reporter)
			out.Cred[i] = CredRecord{Reporter: pid, Cred: s.cred[i]}
		}
		slices.SortFunc(out.Cred, func(a, b CredRecord) int { return a.Reporter.Cmp(b.Reporter) })
	}
	return out
}

// RestoreState overwrites the store's evidence, credibilities and report
// counter with checkpointed values. Existing slots — including non-present
// placeholders — are discarded; callers re-resolve any Refs they held.
// A state no run could have written is refused with an error and leaves
// the store untouched: subjects or reporters not in strictly ascending
// order (which covers duplicates), a credibility outside [CredMin, 1], a
// negative or non-finite S or W, or a negative report count. Reports add
// non-negative weight, adjustments clamp S at 0 and the credibility
// update floors and clamps, so every run stays inside these bounds; a
// restored state outside them could make Query return NaN.
func (s *Store) RestoreState(st StoreState) error {
	if err := id.Ascending(st.Subjects, func(r SubjectRecord) id.ID { return r.Subject }, id.ID.Cmp); err != nil {
		return fmt.Errorf("rocq: restore: subject %w", err)
	}
	if err := id.Ascending(st.Cred, func(r CredRecord) id.ID { return r.Reporter }, id.ID.Cmp); err != nil {
		return fmt.Errorf("rocq: restore: reporter %w", err)
	}
	if st.Reports < 0 {
		return fmt.Errorf("rocq: restore: report count %d is negative", st.Reports)
	}
	for _, rec := range st.Subjects {
		switch {
		case !nonNegative(rec.S) || !nonNegative(rec.W):
			return fmt.Errorf("rocq: restore: subject %s has S %v, W %v, want finite and non-negative", rec.Subject.Short(), rec.S, rec.W)
		case rec.Reports < 0:
			return fmt.Errorf("rocq: restore: subject %s has report count %d, want non-negative", rec.Subject.Short(), rec.Reports)
		}
	}
	for _, rec := range st.Cred {
		if !(rec.Cred >= s.params.CredMin && rec.Cred <= 1) {
			return fmt.Errorf("rocq: restore: reporter %s has credibility %v outside [%v, 1]", rec.Reporter.Short(), rec.Cred, s.params.CredMin)
		}
	}
	s.index = make([]indexEntry, len(st.Subjects))
	s.s = make([]float64, 0, len(st.Subjects))
	s.w = make([]float64, 0, len(st.Subjects))
	s.meta = make([]subjectMeta, 0, len(st.Subjects))
	s.free = nil
	s.known = len(st.Subjects)
	s.reports = st.Reports
	for i, rec := range st.Subjects {
		h := s.handles.Intern(rec.Subject)
		s.index[i] = indexEntry{subject: h, slot: int32(i)}
		s.s = append(s.s, rec.S)
		s.w = append(s.w, rec.W)
		s.meta = append(s.meta, subjectMeta{subject: h, reports: rec.Reports, present: true})
	}
	// Records arrive in identifier order, and the table may have numbered
	// these identities in any order: sort each table by handle once.
	slices.SortFunc(s.index, func(a, b indexEntry) int { return bySubject(a, b.subject) })
	cred := make([]handleValue[float64], len(st.Cred))
	for i, rec := range st.Cred {
		cred[i] = handleValue[float64]{s.handles.Intern(rec.Reporter), rec.Cred}
	}
	s.credH, s.cred = columns(cred)
	return nil
}

// nonNegative reports whether v is a finite number no less than 0.
func nonNegative(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// handleValue is one entry of a handle-keyed table on its way from a
// checkpoint into columns.
type handleValue[V any] struct {
	h arena.Ordinal
	v V
}

// columns sorts restored entries by handle and splits them into a handle
// column and a parallel value column, each of exactly the needed
// capacity. No entries give nil columns.
func columns[V any](entries []handleValue[V]) ([]arena.Ordinal, []V) {
	if len(entries) == 0 {
		return nil, nil
	}
	slices.SortFunc(entries, func(a, b handleValue[V]) int { return cmp.Compare(a.h, b.h) })
	hs := make([]arena.Ordinal, len(entries))
	vs := make([]V, len(entries))
	for i, e := range entries {
		hs[i], vs[i] = e.h, e.v
	}
	return hs, vs
}

// PartnerRecord is the serializable first-hand experience a peer holds
// about one partner.
type PartnerRecord struct {
	Partner id.ID
	Sum     float64
	Count   int64
}

// ExportState captures the opinion book's experience in ascending partner
// order.
func (b *OpinionBook) ExportState() []PartnerRecord {
	if len(b.partnerH) == 0 {
		return nil
	}
	out := make([]PartnerRecord, len(b.partnerH))
	for i, partner := range b.partnerH {
		pid, _ := b.handles.ID(partner)
		out[i] = PartnerRecord{Partner: pid, Sum: b.partners[i].sum, Count: b.partners[i].count}
	}
	slices.SortFunc(out, func(a, b PartnerRecord) int { return a.Partner.Cmp(b.Partner) })
	return out
}

// RestoreState overwrites the opinion book's experience with checkpointed
// values. Records Record could not have produced — partners not in
// strictly ascending order, a count below one, or a sum outside
// [0, count] — are refused with an error and leave the book untouched:
// the next Record would otherwise return an opinion outside [0,1].
func (b *OpinionBook) RestoreState(recs []PartnerRecord) error {
	if err := id.Ascending(recs, func(r PartnerRecord) id.ID { return r.Partner }, id.ID.Cmp); err != nil {
		return fmt.Errorf("rocq: restore: partner %w", err)
	}
	for _, rec := range recs {
		switch {
		case rec.Count < 1:
			return fmt.Errorf("rocq: restore: partner %s has count %d, want at least 1", rec.Partner.Short(), rec.Count)
		case !(rec.Sum >= 0 && rec.Sum <= float64(rec.Count)):
			return fmt.Errorf("rocq: restore: partner %s has sum %v outside [0, %d]", rec.Partner.Short(), rec.Sum, rec.Count)
		}
	}
	partners := make([]handleValue[opinionState], len(recs))
	for i, rec := range recs {
		partners[i] = handleValue[opinionState]{b.handles.Intern(rec.Partner), opinionState{sum: rec.Sum, count: rec.Count}}
	}
	b.partnerH, b.partners = columns(partners)
	return nil
}
