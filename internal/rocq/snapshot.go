package rocq

import (
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/id"
)

// Checkpoint support. A Store's behaviour is fully determined by the
// evidence in its present slots, its per-reporter credibilities and the
// total report counter; non-present placeholder slots exist only to give
// Refs stable addresses and are recreated on demand after a restore, so
// they are not captured. All map-backed state is exported as slices in
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
	if len(s.cred) > 0 {
		out.Cred = make([]CredRecord, 0, len(s.cred))
		for reporter, c := range s.cred {
			pid, _ := s.handles.ID(reporter)
			out.Cred = append(out.Cred, CredRecord{Reporter: pid, Cred: c})
		}
		slices.SortFunc(out.Cred, func(a, b CredRecord) int { return a.Reporter.Cmp(b.Reporter) })
	}
	return out
}

// RestoreState overwrites the store's evidence, credibilities and report
// counter with checkpointed values. Existing slots — including non-present
// placeholders — are discarded; callers re-resolve any Refs they held.
// A state ExportState could not have written — subjects or reporters not
// in strictly ascending order, which covers duplicates — is refused with
// an error and leaves the store untouched.
func (s *Store) RestoreState(st StoreState) error {
	if err := ascending(st.Subjects, func(r SubjectRecord) id.ID { return r.Subject }); err != nil {
		return fmt.Errorf("rocq: restore: subject %w", err)
	}
	if err := ascending(st.Cred, func(r CredRecord) id.ID { return r.Reporter }); err != nil {
		return fmt.Errorf("rocq: restore: reporter %w", err)
	}
	s.index = make(map[arena.Ordinal]int32, len(st.Subjects))
	s.s = make([]float64, 0, len(st.Subjects))
	s.w = make([]float64, 0, len(st.Subjects))
	s.meta = make([]subjectMeta, 0, len(st.Subjects))
	s.free = nil
	s.cred = nil
	if len(st.Cred) > 0 {
		s.cred = make(map[arena.Ordinal]float64, len(st.Cred))
	}
	s.known = len(st.Subjects)
	s.reports = st.Reports
	for _, rec := range st.Subjects {
		h := s.handles.Intern(rec.Subject)
		s.index[h] = int32(len(s.meta))
		s.s = append(s.s, rec.S)
		s.w = append(s.w, rec.W)
		s.meta = append(s.meta, subjectMeta{subject: h, reports: rec.Reports, present: true})
	}
	for _, rec := range st.Cred {
		s.cred[s.handles.Intern(rec.Reporter)] = rec.Cred
	}
	return nil
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
	if len(b.partners) == 0 {
		return nil
	}
	out := make([]PartnerRecord, 0, len(b.partners))
	for partner, st := range b.partners {
		pid, _ := b.handles.ID(partner)
		out = append(out, PartnerRecord{Partner: pid, Sum: st.sum, Count: st.count})
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
	if err := ascending(recs, func(r PartnerRecord) id.ID { return r.Partner }); err != nil {
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
	b.partners = nil
	if len(recs) == 0 {
		return nil
	}
	b.partners = make(map[arena.Ordinal]opinionState, len(recs))
	for _, rec := range recs {
		b.partners[b.handles.Intern(rec.Partner)] = opinionState{sum: rec.Sum, count: rec.Count}
	}
	return nil
}

// ascending checks that the records' identifiers are strictly ascending,
// the order every export writes.
func ascending[T any](recs []T, key func(T) id.ID) error {
	for i := 1; i < len(recs); i++ {
		if prev, cur := key(recs[i-1]), key(recs[i]); !prev.Less(cur) {
			return fmt.Errorf("%s follows %s: identifiers not strictly ascending", cur.Short(), prev.Short())
		}
	}
	return nil
}
