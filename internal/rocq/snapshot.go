package rocq

import (
	"slices"

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
				out.Subjects = append(out.Subjects, SubjectRecord{Subject: s.meta[i].subject, S: s.s[i], W: s.w[i], Reports: s.meta[i].reports})
			}
		}
		slices.SortFunc(out.Subjects, func(a, b SubjectRecord) int { return a.Subject.Cmp(b.Subject) })
	}
	if len(s.cred) > 0 {
		out.Cred = make([]CredRecord, 0, len(s.cred))
		for reporter, c := range s.cred {
			out.Cred = append(out.Cred, CredRecord{Reporter: reporter, Cred: c})
		}
		slices.SortFunc(out.Cred, func(a, b CredRecord) int { return a.Reporter.Cmp(b.Reporter) })
	}
	return out
}

// RestoreState overwrites the store's evidence, credibilities and report
// counter with checkpointed values. Existing slots — including non-present
// placeholders — are discarded; callers re-resolve any Refs they held.
func (s *Store) RestoreState(st StoreState) {
	s.index = make(map[id.ID]int32, len(st.Subjects))
	s.s = make([]float64, 0, len(st.Subjects))
	s.w = make([]float64, 0, len(st.Subjects))
	s.meta = make([]subjectMeta, 0, len(st.Subjects))
	s.free = nil
	s.cred = nil
	if len(st.Cred) > 0 {
		s.cred = make(map[id.ID]float64, len(st.Cred))
	}
	s.known = len(st.Subjects)
	s.reports = st.Reports
	for _, rec := range st.Subjects {
		s.index[rec.Subject] = int32(len(s.meta))
		s.s = append(s.s, rec.S)
		s.w = append(s.w, rec.W)
		s.meta = append(s.meta, subjectMeta{subject: rec.Subject, reports: rec.Reports, present: true})
	}
	for _, rec := range st.Cred {
		s.cred[rec.Reporter] = rec.Cred
	}
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
		out = append(out, PartnerRecord{Partner: partner, Sum: st.sum, Count: st.count})
	}
	slices.SortFunc(out, func(a, b PartnerRecord) int { return a.Partner.Cmp(b.Partner) })
	return out
}

// RestoreState overwrites the opinion book's experience with checkpointed
// values.
func (b *OpinionBook) RestoreState(recs []PartnerRecord) {
	b.partners = nil
	if len(recs) == 0 {
		return
	}
	b.partners = make(map[id.ID]*opinionState, len(recs))
	for _, rec := range recs {
		b.partners[rec.Partner] = &opinionState{sum: rec.Sum, count: rec.Count}
	}
}
