// Package rocq implements the ROCQ (Reputation, Opinion, Credibility,
// Quality) reputation management scheme of Garg, Battiti et al., which the
// reputation-lending paper builds on: "We use the ROCQ reputation
// management system to compute reputation values for peers."
//
// The scheme has two halves:
//
//   - Reporter side: after every transaction a peer updates its local
//     *opinion* of its partner — the running average of its direct
//     experiences — together with a *quality* value expressing how
//     confident that opinion is (more interactions and more consistent
//     outcomes give higher quality). The peer reports (opinion, quality)
//     to the partner's score managers. OpinionBook implements this half.
//
//   - Score-manager side: each of a peer's score managers folds incoming
//     reports into the peer's stored reputation, weighting every report by
//     the *credibility* the manager holds for the reporter times the
//     report's quality. Credibility rises when a reporter agrees with the
//     aggregate and falls when it deviates, which is what defangs the
//     paper's uncooperative peers that "always send 0 for their partners".
//     Store implements this half.
//
// Reputation values live in [0,1] and admit the additive adjustments the
// lending protocol needs (Credit/Debit): a debit lowers the stored
// aggregate and subsequent positive feedback pulls it back up, matching
// the paper's "the introducer can recoup its reputation in time by
// behaving cooperatively with other peers".
//
// Stores and opinion books key their per-identity tables on dense int32
// handles from an arena.Ordinals table rather than on 20-byte
// identifiers. A world shares one handle table among every store and
// book it builds; a store or book built standalone owns a private one.
// The table only interns, never releases, so a handle names one identity
// for the table's lifetime: a store keeps a forgotten peer's credibility
// as a reporter and a peer keeps its opinion of a forgotten partner, and
// a recycled number would alias both. Reads by identifier look it up
// without interning it; only writes intern. Handles never feed output
// bytes: exports map them back to identifiers and sort, and restores
// intern again.
//
// Each per-handle table is one column of records kept sorted by handle,
// searched by binary search and nil until its first write: (reporter,
// credibility) records for a store's credibilities (12 B each),
// (partner, sum, count) records for a book's partners (20 B) and
// (subject, slot) records for a store's subject index (8 B). Each 64-bit
// value is held as an arena.Word, two 32-bit halves, so no record pads
// past its handle and values: a float64 field would make the first two
// 16 and 24 B. A Swiss map spent about 31 B on each 12-byte credibility.
// A column grows by arena.InsertAt, doubling from 8, so a new entry is
// one insert and a doubling makes one object. The handle table interns
// identities in first-seen order, so a reporter or partner seen for the
// first time is usually the newest identity of all and its entry lands
// at the end of its column: inserting by shifting the tail costs little
// here. The index points into a store's one column of subject slots, a
// 32-byte record each (see Store), which grows by the same rule.
package rocq

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/id"
)

// Params are the tunables of the ROCQ update rules. The defaults are
// chosen so that the scheme reproduces the regime reported for ROCQ in the
// paper's §4.1: with a cooperative majority, >95% of serve/deny decisions
// are correct.
type Params struct {
	// PriorWeight anchors the credibility-weighted average at the paper's
	// prior of 0 ("each new entrant is assumed to start with a reputation
	// value of 0"): reputation = S / (W + PriorWeight), where S and W are
	// the weighted sum and total weight of received opinions. A larger
	// prior weight makes newcomers climb more slowly.
	PriorWeight float64
	// WindowWeight caps the total accumulated weight; beyond it, old
	// evidence is scaled down exponentially. This keeps reputations
	// responsive ("recoup in time by behaving cooperatively") instead of
	// freezing under the mass of ancient reports.
	WindowWeight float64
	// CredInit is the credibility assigned to a reporter the first time a
	// score manager hears from it.
	CredInit float64
	// CredGain is the learning rate of the credibility update.
	CredGain float64
	// CredMin floors credibility so a reporter can always climb back.
	CredMin float64
	// QualityHalf is the interaction count at which opinion quality
	// reaches one half of its consistency-limited maximum.
	QualityHalf float64
}

// DefaultParams returns the parameter set used throughout the reproduction.
// CredInit starts high: in ROCQ's honest-majority regime the aggregate is
// anchored by the majority, so liars lose credibility from any starting
// point, while a high start lets honest first reports about newcomers count
// — newcomers must climb within a handful of transactions, as in the
// paper's Figure 2 dynamics.
func DefaultParams() Params {
	return Params{
		PriorWeight:  0.5,
		WindowWeight: 100,
		CredInit:     0.85,
		CredGain:     0.05,
		CredMin:      0.05,
		QualityHalf:  0.5,
	}
}

// defaultParams is the one DefaultParams value shared by every store and
// book built with the defaults, which is every store and book a world
// builds. Nothing writes through a params pointer.
var defaultParams = DefaultParams()

// sharedParams returns a pointer to p's value: the shared defaults when p
// equals them, else a private copy. The copy is declared in its branch
// so that only a non-default p costs an allocation.
func sharedParams(p Params) *Params {
	if p == defaultParams {
		return &defaultParams
	}
	own := p
	return &own
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.PriorWeight <= 0:
		return fmt.Errorf("rocq: PriorWeight %v must be positive", p.PriorWeight)
	case p.WindowWeight <= p.PriorWeight:
		return fmt.Errorf("rocq: WindowWeight %v must exceed PriorWeight %v", p.WindowWeight, p.PriorWeight)
	case p.CredInit <= 0 || p.CredInit > 1:
		return fmt.Errorf("rocq: CredInit %v out of (0,1]", p.CredInit)
	case p.CredGain <= 0 || p.CredGain > 1:
		return fmt.Errorf("rocq: CredGain %v out of (0,1]", p.CredGain)
	case p.CredMin < 0 || p.CredMin >= 1:
		return fmt.Errorf("rocq: CredMin %v out of [0,1)", p.CredMin)
	case p.QualityHalf <= 0:
		return fmt.Errorf("rocq: QualityHalf %v must be positive", p.QualityHalf)
	}
	return nil
}

// clamp01 restricts v to [0,1].
func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// ---------------------------------------------------------------------------
// Reporter side: opinions with quality.

// Opinion is a peer's local view of one partner.
type Opinion struct {
	// Value is the running average of experience ratings in [0,1].
	Value float64
	// Quality is the confidence in Value, in [0,1].
	Quality float64
	// Count is the number of direct experiences behind the opinion.
	Count int64
}

// OpinionBook tracks a peer's first-hand experience with every partner it
// has transacted with, in one column of records sorted by partner handle.
// The column is allocated by the first Record: a founding community of
// n peers would otherwise hold n empty tables before the first
// transaction.
type OpinionBook struct {
	//replend:allow snapshotfields points at the shared DefaultParams value for every peer (restorePeer rebuilds books with it); params carry no run state
	params   *Params
	handles  *arena.Ordinals
	partners []partnerEntry // ascending by partner handle
}

// partnerEntry is a book's experience with one partner, 20 B: the sum of
// its ratings and their count, each packed into an arena.Word.
type partnerEntry struct {
	partner arena.Ordinal
	sum     arena.Word // float64
	count   arena.Word // int64
}

// byPartner orders partner records by handle.
func byPartner(e partnerEntry, partner arena.Ordinal) int { return cmp.Compare(e.partner, partner) }

// opinionState is a partner record's experience, unpacked.
type opinionState struct {
	sum   float64
	count int64
}

func (e *partnerEntry) state() opinionState {
	return opinionState{sum: e.sum.Float64(), count: e.count.Int64()}
}

// NewOpinionBook returns an empty book using the given parameters, with a
// handle table of its own.
func NewOpinionBook(p Params) *OpinionBook {
	return NewOpinionBookOn(p, arena.NewOrdinals())
}

// NewOpinionBookOn returns an empty book that numbers partners in the
// given shared handle table.
func NewOpinionBookOn(p Params, handles *arena.Ordinals) *OpinionBook {
	if err := p.Validate(); err != nil {
		//replend:allow nopanic construction-time misuse guard: params are validated by config before any run starts
		panic(err)
	}
	return &OpinionBook{params: sharedParams(p), handles: handles}
}

// Record folds one experience rating (in [0,1]; the paper's model uses the
// binary values 1 = satisfied, 0 = not satisfied) into the opinion of the
// given partner and returns the updated opinion.
func (b *OpinionBook) Record(partner id.ID, rating float64) Opinion {
	return b.RecordHandle(b.handles.Intern(partner), rating)
}

// RecordHandle is Record for a partner already numbered in the book's
// handle table.
func (b *OpinionBook) RecordHandle(partner arena.Ordinal, rating float64) Opinion {
	if rating < 0 || rating > 1 {
		//replend:allow nopanic caller-contract invariant: behaviour styles emit only 0 or 1 ratings
		panic(fmt.Sprintf("rocq: rating %v out of [0,1]", rating))
	}
	i, ok := slices.BinarySearchFunc(b.partners, partner, byPartner)
	if !ok {
		b.partners = arena.InsertAt(b.partners, i, partnerEntry{partner: partner})
	}
	e := &b.partners[i]
	st := e.state()
	st.sum += rating
	st.count++
	e.sum, e.count = arena.Float64Word(st.sum), arena.Int64Word(st.count)
	return b.opinion(st)
}

// Opinion returns the current opinion of a partner and whether any
// experience with it exists.
func (b *OpinionBook) Opinion(partner id.ID) (Opinion, bool) {
	h, ok := b.handles.Get(partner)
	if !ok {
		return Opinion{}, false
	}
	i, ok := slices.BinarySearchFunc(b.partners, h, byPartner)
	if !ok {
		return Opinion{}, false
	}
	return b.opinion(b.partners[i].state()), true
}

// Partners returns the number of distinct partners with recorded
// experience.
func (b *OpinionBook) Partners() int { return len(b.partners) }

func (b *OpinionBook) opinion(st opinionState) Opinion {
	mean := st.sum / float64(st.count)
	// Quality grows with the number of experiences (saturation term) and
	// shrinks when the experiences are inconsistent: a half-good,
	// half-bad history gives a much less useful opinion than a unanimous
	// one. For ratings in [0,1] the consistency term 1−2·min(m,1−m) is 1
	// for unanimous histories and 0 at m=0.5.
	saturation := float64(st.count) / (float64(st.count) + b.params.QualityHalf)
	consistency := 1 - 2*minf(mean, 1-mean)
	quality := saturation * (0.25 + 0.75*consistency)
	return Opinion{Value: mean, Quality: clamp01(quality), Count: st.count}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Score-manager side: credibility-weighted aggregation.

// Store holds the reputation state one score-manager node keeps for the
// subjects it is responsible for, together with its private credibility
// estimates of reporters. A Store is not safe for concurrent use.
//
// Memory layout: each subject the store holds a slot for has one
// 32-byte record in the slots column (subjectSlot), so a query reads the
// weighted sum, the weight and the present flag from one record, and the
// index, a column of (handle, slot) pairs sorted by handle, finds a
// subject's slot. Each reporter the store has heard from has one 12-byte
// record in the creds column (credEntry), sorted by handle. Forget and
// DropPlaceholder free a slot onto a LIFO chain threaded through the
// freed records themselves: the store holds the head, and each freed
// record's subject field links to the slot freed before it. Churn thus
// reuses slots instead of growing the column without bound, and neither
// freeing nor reusing a slot allocates. Neither slot indices nor handles
// feed output bytes: SubjectIDs and ExportState sort by identifier.
type Store struct {
	//replend:allow snapshotfields points at the shared DefaultParams value for every store (world.Restore rebuilds them so); params carry no run state
	params  *Params
	handles *arena.Ordinals // numbers subjects and reporters (see the package doc)
	index   []indexEntry    // subject handle → slot, ascending by handle
	slots   []subjectSlot   // subject records, by slot
	//replend:allow snapshotfields freed slots hold no evidence; a restored store packs its present slots and starts with none free
	free int32 // head of the free chain: 1 + the last slot freed, 0 when none is free
	// creds holds the reporter credibilities, ascending by reporter
	// handle. The first report allocates it: most stores in a freshly
	// built world hold only initialised subjects and hear from no one.
	creds []credEntry

	known   int // subjects with evidence (present slots)
	reports int64

	// onChange, when set, observes every mutation of a subject's stored
	// evidence (reports, credits, debits, zeroing, init, adoption,
	// forgetting), naming the subject by its handle. The simulation world
	// uses it to dirty-track reputation reads so periodic sampling touches
	// only subjects that changed.
	//replend:allow snapshotfields observer hook, re-attached by the restoring world (SetOnChange) — not serializable state
	onChange func(subject arena.Ordinal)
}

// subjectSlot is one subject's record: reputation reads as
// s / (w + PriorWeight), the weighted average of received opinions
// anchored at the prior 0. Lending credits and debits shift s by
// amount·(w + PriorWeight), which moves the read value by exactly
// ±amount and then fades as further evidence accumulates — the paper's
// "recoup … by behaving cooperatively".
// A slot may exist before any evidence arrives (Ref pre-resolves slots so
// hot query paths are array reads instead of index searches); present
// distinguishes real evidence from such placeholders, and is what Query,
// Known and Subjects report. A slot index stays bound to its subject
// until Forget or DropPlaceholder frees it, so a Ref stays valid as long
// as its subject is not forgotten and its placeholder not dropped. A
// freed record is zero but for its subject field, which links the free
// chain the way Store.free heads it: 1 + the slot freed before it, 0 at
// the end.
type subjectSlot struct {
	s       float64       // weighted opinion sum, plus lending adjustments
	w       float64       // total opinion weight
	reports int64         // reports folded into this slot
	subject arena.Ordinal // the subject this slot is about (for change notification)
	present bool          // the store has actually heard about this subject
}

// credEntry is a store's credibility for one reporter, 12 B: the float64
// is packed into an arena.Word.
type credEntry struct {
	reporter arena.Ordinal
	cred     arena.Word // float64
}

// byReporter orders credibility records by handle.
func byReporter(e credEntry, reporter arena.Ordinal) int { return cmp.Compare(e.reporter, reporter) }

// indexEntry binds a subject's handle to its slot.
type indexEntry struct {
	subject arena.Ordinal
	slot    int32
}

// bySubject orders index entries by subject handle.
func bySubject(e indexEntry, subject arena.Ordinal) int { return cmp.Compare(e.subject, subject) }

// NewStore returns an empty score-manager store with a handle table of
// its own.
func NewStore(p Params) *Store {
	return NewStoreOn(p, arena.NewOrdinals())
}

// NewStoreOn returns an empty score-manager store that numbers subjects
// and reporters in the given shared handle table.
func NewStoreOn(p Params, handles *arena.Ordinals) *Store {
	if err := p.Validate(); err != nil {
		//replend:allow nopanic construction-time misuse guard: params are validated by config before any run starts
		panic(err)
	}
	return &Store{params: sharedParams(p), handles: handles}
}

// Subjects returns the number of subjects with stored reputation.
func (s *Store) Subjects() int { return s.known }

// Reports returns the total number of reports folded in.
func (s *Store) Reports() int64 { return s.reports }

// SetOnChange attaches the evidence-mutation observer, which receives the
// subject's handle in the store's table; nil detaches it.
func (s *Store) SetOnChange(fn func(subject arena.Ordinal)) { s.onChange = fn }

// notify reports a mutation of the slot's subject to the observer.
func (s *Store) notify(sl *subjectSlot) {
	if s.onChange != nil {
		s.onChange(sl.subject)
	}
}

// lookup returns the subject's slot index without interning the
// subject.
func (s *Store) lookup(subject id.ID) (int32, bool) {
	h, ok := s.handles.Get(subject)
	if !ok {
		return 0, false
	}
	pos, ok := s.find(h)
	if !ok {
		return 0, false
	}
	return s.index[pos].slot, true
}

// find returns the position of the subject's index entry, or the
// position to insert it at, and whether the entry is there.
func (s *Store) find(subject arena.Ordinal) (int, bool) {
	return slices.BinarySearchFunc(s.index, subject, bySubject)
}

// slot returns the subject's slot index, interning the subject and
// creating an empty (non-present) placeholder — the last slot freed, if
// churn freed one — if the store has no slot for it yet.
func (s *Store) slot(subject id.ID) int32 {
	return s.slotOf(s.handles.Intern(subject))
}

// slotOf is slot for a subject's handle.
func (s *Store) slotOf(subject arena.Ordinal) int32 {
	pos, ok := s.find(subject)
	if ok {
		return s.index[pos].slot
	}
	idx := s.free - 1
	if idx >= 0 {
		s.free = int32(s.slots[idx].subject)
		s.slots[idx] = subjectSlot{subject: subject}
	} else {
		idx = int32(len(s.slots))
		s.slots = arena.InsertAt(s.slots, len(s.slots), subjectSlot{subject: subject})
	}
	s.index = arena.InsertAt(s.index, pos, indexEntry{subject: subject, slot: idx})
	return idx
}

// materialize marks a slot as holding real evidence.
func (s *Store) materialize(sl *subjectSlot) {
	if !sl.present {
		sl.present = true
		s.known++
	}
}

// initWeight is the evidence weight behind an explicitly initialised
// reputation (founders, baseline admissions): solid but not immovable.
const initWeight = 20

// Init creates (or resets) a subject's stored reputation to the given
// value, backed by a solid body of synthetic evidence. The simulation uses
// it for the founding community members, which the paper assumes "are
// honest and cooperative" from the start.
func (s *Store) Init(subject id.ID, rep float64) {
	s.initSlot(s.slot(subject), rep)
}

func (s *Store) initSlot(idx int32, rep float64) {
	sl := &s.slots[idx]
	s.materialize(sl)
	sl.s, sl.w, sl.reports = clamp01(rep)*(initWeight+s.params.PriorWeight), initWeight, 0
	s.notify(sl)
}

// Known reports whether the store holds state for the subject.
func (s *Store) Known(subject id.ID) bool {
	idx, ok := s.lookup(subject)
	return ok && s.slots[idx].present
}

// value reads the reputation of one subject slot.
func (s *Store) value(sl *subjectSlot) float64 {
	return clamp01(sl.s / (sl.w + s.params.PriorWeight))
}

// Query returns the stored reputation of the subject, and false if the
// store has never heard of it (a fresh score manager after churn, or a
// peer that was never admitted).
func (s *Store) Query(subject id.ID) (float64, bool) {
	idx, ok := s.lookup(subject)
	if !ok || !s.slots[idx].present {
		return 0, false
	}
	return s.value(&s.slots[idx]), true
}

// Ref is a stable reference to one subject's slot in this store: Query
// through it reads one slot record, no hashing. The reference stays
// valid as long as its subject is not forgotten (slots are reset in
// place, and a slot index stays bound to its subject until Forget frees
// it) and observes evidence that arrives after it was taken.
type Ref struct {
	store *Store
	idx   int32
}

// Ref resolves a reference to the subject's slot, pre-creating an empty
// slot that Query, Known and Subjects ignore until evidence arrives.
func (s *Store) Ref(subject id.ID) Ref {
	return s.RefHandle(s.handles.Intern(subject))
}

// RefHandle is Ref for a subject already numbered in the store's handle
// table.
func (s *Store) RefHandle(subject arena.Ordinal) Ref {
	return Ref{store: s, idx: s.slotOf(subject)}
}

// HeldRef is RefHandle without the placeholder: it references the
// subject's slot if the store holds one, and otherwise a slot-less
// reference that Query reads as unknown. Nothing may write through a
// slot-less reference; it serves read-only placements (of peers no
// placement cache holds) that must not leave empty slots behind.
func (s *Store) HeldRef(subject arena.Ordinal) Ref {
	if pos, ok := s.find(subject); ok {
		return Ref{store: s, idx: s.index[pos].slot}
	}
	return Ref{store: s, idx: -1}
}

// Store returns the store the reference points into.
func (r Ref) Store() *Store { return r.store }

// Init is Store.Init through the pre-resolved reference.
func (r Ref) Init(rep float64) { r.store.initSlot(r.idx, rep) }

// Forget drops the subject's slot entirely and frees its index —
// used when the subject's node has left the network for good, so the
// store need not retain (or keep a placeholder for) evidence nobody can
// query again. Callers must ensure no Ref for the subject outlives the
// forget: the slot index may be rebound to another subject.
func (s *Store) Forget(subject id.ID) {
	if h, ok := s.handles.Get(subject); ok {
		s.ForgetHandle(h)
	}
}

// ForgetHandle is Forget for a subject already numbered in the store's
// handle table.
func (s *Store) ForgetHandle(subject arena.Ordinal) {
	pos, ok := s.find(subject)
	if !ok {
		return
	}
	if sl := &s.slots[s.index[pos].slot]; sl.present {
		s.known--
		s.notify(sl)
	}
	s.recycle(pos)
}

// DropPlaceholder frees the subject's slot if it holds no evidence —
// the placement that pre-resolved it has moved to other managers, so
// nothing can read the placeholder again. A slot with evidence stays.
// Dropping twice is a no-op, and a drop never notifies the observer.
func (s *Store) DropPlaceholder(subject id.ID) {
	if h, ok := s.handles.Get(subject); ok {
		s.DropPlaceholderHandle(h)
	}
}

// DropPlaceholderHandle is DropPlaceholder for a subject already numbered
// in the store's handle table.
func (s *Store) DropPlaceholderHandle(subject arena.Ordinal) {
	if pos, ok := s.find(subject); ok && !s.slots[s.index[pos].slot].present {
		s.recycle(pos)
	}
}

// recycle removes the index entry at pos and pushes its slot onto the
// free chain.
func (s *Store) recycle(pos int) {
	idx := s.index[pos].slot
	s.index = slices.Delete(s.index, pos, pos+1)
	s.slots[idx] = subjectSlot{subject: arena.Ordinal(s.free)}
	s.free = idx + 1
}

// Query is Store.Query through the pre-resolved reference.
func (r Ref) Query() (float64, bool) {
	if r.idx < 0 || !r.store.slots[r.idx].present {
		return 0, false
	}
	return r.store.value(&r.store.slots[r.idx]), true
}

// Credibility returns the store's current credibility for a reporter.
func (s *Store) Credibility(reporter id.ID) float64 {
	if h, ok := s.handles.Get(reporter); ok {
		if i, ok := slices.BinarySearchFunc(s.creds, h, byReporter); ok {
			return s.creds[i].cred.Float64()
		}
	}
	return s.params.CredInit
}

// Report folds one (opinion, quality) report about subject from reporter
// into the stored evidence with weight credibility·quality, and updates
// the reporter's credibility according to how well the report agreed with
// the resulting aggregate. A report about an unknown subject creates the
// subject at the zero prior first — an unintroduced peer starts at 0.
func (s *Store) Report(reporter, subject id.ID, op Opinion) {
	s.reportTo(s.slot(subject), s.handles.Intern(reporter), op)
}

// Report folds the report into the reference's subject, sparing the
// subject-index search on the per-transaction feedback path.
func (r Ref) Report(reporter id.ID, op Opinion) {
	r.store.reportTo(r.idx, r.store.handles.Intern(reporter), op)
}

// ReportHandle is Ref.Report for a reporter already numbered in the
// store's handle table — the form the simulator's feedback path uses, so
// one report resolves the reporter once, not once per score manager.
func (r Ref) ReportHandle(reporter arena.Ordinal, op Opinion) {
	r.store.reportTo(r.idx, reporter, op)
}

func (s *Store) reportTo(idx int32, reporter arena.Ordinal, op Opinion) {
	if op.Value < 0 || op.Value > 1 || op.Quality < 0 || op.Quality > 1 {
		//replend:allow nopanic caller-contract invariant: OpinionBook clamps opinions to [0,1] before they reach a store
		panic(fmt.Sprintf("rocq: report out of range: %+v", op))
	}
	s.reports++
	// One search serves both the read and the write of the credibility.
	pos, found := slices.BinarySearchFunc(s.creds, reporter, byReporter)
	cred := s.params.CredInit
	if found {
		cred = s.creds[pos].cred.Float64()
	}
	sl := &s.slots[idx]
	s.materialize(sl)
	w := cred * op.Quality
	sl.s += w * op.Value
	sl.w += w
	// Sliding window: beyond WindowWeight, scale old evidence down so the
	// aggregate stays responsive to recent behaviour.
	if sl.w > s.params.WindowWeight {
		f := s.params.WindowWeight / sl.w
		sl.s *= f
		sl.w = s.params.WindowWeight
	}
	sl.reports++
	if c := arena.Float64Word(s.nextCred(cred, op.Value, s.value(sl))); found {
		s.creds[pos].cred = c
	} else {
		s.creds = arena.InsertAt(s.creds, pos, credEntry{reporter: reporter, cred: c})
	}
	s.notify(sl)
}

// nextCred moves a reporter's credibility toward 1−|opinion−aggregate|:
// reporters that agree with the aggregate become more credible, reporters
// that consistently deviate (for instance the paper's uncooperative peers,
// which always report 0) lose influence.
func (s *Store) nextCred(cred, opinion, aggregate float64) float64 {
	d := opinion - aggregate
	if d < 0 {
		d = -d
	}
	target := 1 - d
	c := cred + s.params.CredGain*(target-cred)
	if c < s.params.CredMin {
		c = s.params.CredMin
	}
	return clamp01(c)
}

// adjust shifts the subject's read value by exactly delta (before
// clamping) by moving the weighted sum, creating the subject at the zero
// prior first if unknown.
func (s *Store) adjust(subject id.ID, delta float64) {
	sl := &s.slots[s.slot(subject)]
	s.materialize(sl)
	sl.s += delta * (sl.w + s.params.PriorWeight)
	// Keep the evidence sum inside the representable [0,1] value range so
	// clamped adjustments do not bank hidden credit or debt.
	if max := sl.w + s.params.PriorWeight; sl.s > max {
		sl.s = max
	}
	if sl.s < 0 {
		sl.s = 0
	}
	s.notify(sl)
}

// Credit raises the subject's stored reputation by amount (clamped to 1),
// creating the subject at reputation 0 first if unknown — this is exactly
// the score-manager action for the lending protocol's CREDIT message, and
// the paper's bootstrap rule "each new entrant is assumed to start with a
// reputation value of 0".
func (s *Store) Credit(subject id.ID, amount float64) {
	if amount < 0 {
		//replend:allow nopanic caller-contract invariant: lending computes credit amounts from non-negative stakes
		panic("rocq: negative credit")
	}
	s.adjust(subject, amount)
}

// Debit lowers the subject's stored reputation by amount, clamped at 0
// ("subject to a minimum of 0"), creating the subject first if unknown.
func (s *Store) Debit(subject id.ID, amount float64) {
	if amount < 0 {
		//replend:allow nopanic caller-contract invariant: lending computes debit amounts from non-negative stakes
		panic("rocq: negative debit")
	}
	s.adjust(subject, -amount)
}

// Zero forces the subject's stored reputation to 0; the punishment for a
// peer caught soliciting duplicate introductions.
func (s *Store) Zero(subject id.ID) {
	sl := &s.slots[s.slot(subject)]
	s.materialize(sl)
	sl.s = 0
	s.notify(sl)
}

// ---------------------------------------------------------------------------
// Record migration (churn handoff).

// Snapshot is the portable form of one subject's stored evidence — what a
// score manager hands to the replica taking over its ownership arc when
// membership changes. It carries the raw weighted evidence, not the read
// value, so adoption preserves the window dynamics exactly.
type Snapshot struct {
	S       float64 // weighted opinion sum
	W       float64 // total opinion weight
	Reports int64   // reports folded into this replica
	Prior   float64 // the source store's prior weight (for Value)
}

// Value reads the reputation the snapshot encodes.
func (sn Snapshot) Value() float64 {
	return clamp01(sn.S / (sn.W + sn.Prior))
}

// Export captures the subject's stored evidence, and false when the store
// holds none.
func (s *Store) Export(subject id.ID) (Snapshot, bool) {
	idx, ok := s.lookup(subject)
	if !ok || !s.slots[idx].present {
		return Snapshot{}, false
	}
	sl := &s.slots[idx]
	return Snapshot{S: sl.s, W: sl.w, Reports: sl.reports, Prior: s.params.PriorWeight}, true
}

// Adopt installs a migrated snapshot as the subject's stored evidence,
// replacing whatever the store held. The slot is reset in place, so Refs
// taken before the adoption keep observing the subject.
func (s *Store) Adopt(subject id.ID, sn Snapshot) {
	sl := &s.slots[s.slot(subject)]
	s.materialize(sl)
	sl.s, sl.w, sl.reports = sn.S, sn.W, sn.Reports
	s.notify(sl)
}

// SubjectIDs appends the subjects with stored evidence to buf in
// ascending identifier order and returns the extended slice — the
// deterministic iteration the churn handoff needs when a node's store is
// enumerated at departure. The slot column makes this a linear scan
// instead of a map iteration, and a caller that passes the same buffer
// back scans without allocating. A store without evidence returns buf
// unchanged: every founder's join scans its successor's store before any
// founder has been initialised.
func (s *Store) SubjectIDs(buf []id.ID) []id.ID {
	if s.known == 0 {
		return buf
	}
	out := slices.Grow(buf, s.known)
	for i := range s.slots {
		if sl := &s.slots[i]; sl.present {
			out = append(out, s.subjectID(sl))
		}
	}
	slices.SortFunc(out[len(buf):], id.ID.Cmp)
	return out
}

// subjectID returns the identifier of the slot's subject.
func (s *Store) subjectID(sl *subjectSlot) id.ID {
	pid, _ := s.handles.ID(sl.subject)
	return pid
}

// ArenaSlots returns (live, capacity) of the store's subject slots: how
// many subjects hold an index and how many slots exist in total. A
// capacity bounded near the subject high-water mark is the free chain
// working under churn.
func (s *Store) ArenaSlots() (live, capacity int) {
	return len(s.index), len(s.slots)
}

// ---------------------------------------------------------------------------
// Cross-manager aggregation.

// QuerySet combines the answers of a peer's score managers: the mean of
// the stored values over the managers that know the subject. Managers
// without state (fresh after churn) abstain. The boolean is false when no
// manager knows the subject, which callers must treat as reputation 0 —
// an unintroduced peer.
func QuerySet(stores []*Store, subject id.ID) (float64, bool) {
	sum, n := 0.0, 0
	for _, st := range stores {
		if v, ok := st.Query(subject); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// QueryRefs is QuerySet over pre-resolved references — the form the
// simulator's per-tick query path uses, since it avoids rehashing the
// subject once per manager on every read.
func QueryRefs(refs []Ref) (float64, bool) {
	sum, n := 0.0, 0
	for _, r := range refs {
		if v, ok := r.Query(); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
