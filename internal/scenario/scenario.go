// Package scenario is the declarative workload layer: a JSON scenario
// spec describes the initial community (layered on config.Config), the
// adversary mix (uncooperative arrival fraction, collusion rings, traitors,
// whitewashing streams), timed phases that change parameters mid-run
// (churn waves, λ spikes, policy flips) or script arrivals and faults, and
// the metrics series to emit. The engine executes the spec; users open a
// new workload by writing a file, not a new main package.
//
// A spec is authored by hand (see docs/scenarios.md), loaded with Load,
// and executed with Spec.Run — or stepped phase by phase via Spec.Start
// for programs that want to observe the community between phases. The
// registry (Get, Names) holds built-in scenarios mirroring the repo's
// examples/* programs; golden tests pin each built-in to the metrics of
// the hard-coded program it replaced.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/peer"
	"repro/internal/world"
)

// Spec is one declarative scenario.
type Spec struct {
	// Name identifies the scenario (registry key, output file stem).
	Name string `json:"name"`
	// Description is the one-line story shown by `replend-sim scenarios list`.
	Description string `json:"description,omitempty"`
	// Base is the simulation configuration the run starts from. Absent
	// fields take the paper's Table 1 defaults. Base.NumTrans is the run
	// length in ticks; every phase must fit inside it.
	Base config.Config `json:"base"`
	// Phases are timed interventions, in non-decreasing tick order.
	Phases []Phase `json:"phases,omitempty"`
	// Output selects what the run emits.
	Output Output `json:"output,omitempty"`
}

// Phase is one timed intervention. When the simulation clock reaches At,
// its actions run in a fixed order: Set (parameter delta), Crash (fault
// injection), Depart (membership departures), Inject (scripted arrivals,
// possibly spaced over following ticks), Rejoin (departed members
// return), Recover (heal every node crashed so far).
type Phase struct {
	// Name labels the phase in logs and descriptions.
	Name string `json:"name,omitempty"`
	// At is the simulation tick the phase fires at.
	At int64 `json:"at"`
	// Set applies a parameter delta to the running world — the churn
	// wave / λ spike / policy flip hook.
	Set *world.Delta `json:"set,omitempty"`
	// Crash marks a fraction of a member's score managers crashed.
	Crash *Fault `json:"crash,omitempty"`
	// Depart removes admitted members — gracefully or by crash — in one
	// membership event, with score-manager state handoff when the base
	// configuration enables churn.
	Depart *Departure `json:"depart,omitempty"`
	// Inject scripts arrivals through chosen introducers.
	Inject []Injection `json:"inject,omitempty"`
	// Rejoin readmits the departed peers bound to these labels, restoring
	// their reputation from their score managers.
	Rejoin []string `json:"rejoin,omitempty"`
	// Recover heals every node crashed by earlier phases.
	Recover bool `json:"recover,omitempty"`
}

// Injection scripts the arrival of Count peers asking the selected
// member for an introduction. The introducer is resolved once, when the
// injection first runs, and reused for every repeat.
type Injection struct {
	// As binds the injected peer's identity to a label other phases can
	// reference (introducer: {"ref": "label"}) and results report. With
	// Count > 1 the repeats are labelled "label-1", "label-2", …
	As string `json:"as,omitempty"`
	// Class is "cooperative" or "uncooperative".
	Class string `json:"class"`
	// Style is "naive" or "selective". Default: the paper's assignment —
	// uncooperative peers are naive, cooperative ones selective.
	Style string `json:"style,omitempty"`
	// Introducer selects the member asked for the introduction.
	Introducer Selector `json:"introducer"`
	// Count repeats the injection (default 1) — a collusion ring is one
	// injection with Count = ring size.
	Count int `json:"count,omitempty"`
	// SpacedBy runs the simulation this many ticks after each repeat, so
	// e.g. a colluding ring files one introduction per waiting period.
	SpacedBy int64 `json:"spacedBy,omitempty"`
	// DefectAfter, when positive, makes the (necessarily cooperative)
	// peer a traitor: it behaves honestly for this many ticks after its
	// injection, then freerides and lies like an uncooperative peer.
	DefectAfter int64 `json:"defectAfter,omitempty"`
}

// Selector picks one community member at phase-execution time. The zero
// selector picks the first admitted member. Ref is mutually exclusive
// with the scan fields.
type Selector struct {
	// Ref picks the peer a previous injection (or departure) bound with
	// As.
	Ref string `json:"ref,omitempty"`
	// Style restricts the scan to members with this introduction style
	// ("naive" or "selective").
	Style string `json:"style,omitempty"`
	// Class restricts the scan to members of this behaviour class
	// ("cooperative" or "uncooperative").
	Class string `json:"class,omitempty"`
	// MinRep, when positive, restricts the scan to members whose current
	// reputation strictly exceeds it.
	MinRep float64 `json:"minRep,omitempty"`
	// FallbackFirst falls back to the first admitted member when no
	// member matches, instead of failing the run.
	FallbackFirst bool `json:"fallbackFirst,omitempty"`
}

// Departure is one membership-departure action: either the first Count
// admitted members matching Peers, or a fraction of the current score
// managers of a selected member (the availability-attack form), leave in
// a single membership event.
type Departure struct {
	// Peers selects departing members by scanning admitted peers in
	// admission order; Count takes the first Count matches (default 1).
	// Mutually exclusive with ScoreManagersOf; with both absent the
	// first admitted member departs.
	Peers *Selector `json:"peers,omitempty"`
	// Count is the number of matching members to depart (default 1).
	Count int `json:"count,omitempty"`
	// ScoreManagersOf departs the current score managers of the selected
	// member instead — the replica-wipeout experiment.
	ScoreManagersOf *Selector `json:"scoreManagersOf,omitempty"`
	// Fraction is the leading share of that score-manager set to depart
	// (default 1 = all of it; any positive fraction departs at least
	// one manager).
	Fraction float64 `json:"fraction,omitempty"`
	// Crash makes the departure abrupt: the leaving stores are destroyed
	// before any handoff, so records whose every replica dies in this
	// event are wiped out.
	Crash bool `json:"crash,omitempty"`
	// As labels the departed peers for a later rejoin phase ("label", or
	// "label-1"… when Count > 1). Only valid with Peers selection.
	As string `json:"as,omitempty"`
}

// Fault crashes part of a member's score-manager set: the members hosting
// its reputation stop receiving messages until a Recover phase.
type Fault struct {
	// ScoreManagersOf selects the member whose managers are hit.
	ScoreManagersOf Selector `json:"scoreManagersOf"`
	// Fraction of the score-manager set to crash (leading slots, floor).
	Fraction float64 `json:"fraction"`
}

// Output selects what a run emits.
type Output struct {
	// Series names the time series for CSV output, in column order. Valid
	// names: "coop", "uncoop", "coop-reputation". Empty means all three.
	Series []string `json:"series,omitempty"`
}

// seriesNames are the emittable time series.
var seriesNames = map[string]bool{"coop": true, "uncoop": true, "coop-reputation": true}

// Load parses a scenario from JSON. Absent Base fields take the paper's
// Table 1 defaults; unknown fields and data after the spec are rejected
// (they are almost always typos or paste errors in hand-written files);
// the result is validated.
func Load(data []byte) (*Spec, error) {
	s := &Spec{Base: config.Default()}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("scenario: parsing: %w", err)
	}
	if dec.More() {
		return nil, errors.New("scenario: trailing data after the spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// JSON renders the spec as indented JSON, the format Load reads and
// `replend-sim scenarios dump` emits.
func (s *Spec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Validate checks the whole spec: the base configuration, every phase in
// schedule order (including the cumulative effect of parameter deltas and
// the ticks consumed by spaced injections), selector consistency, and
// label references.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if err := s.Base.Validate(); err != nil {
		return fmt.Errorf("scenario %q: base: %w", s.Name, err)
	}
	cfg := s.Base
	labels := map[string]bool{}
	cursor := int64(0) // earliest tick the next phase may fire at
	for i := range s.Phases {
		ph := &s.Phases[i]
		where := fmt.Sprintf("scenario %q: phase %d (%s)", s.Name, i, ph.label())
		if ph.At < 0 {
			return fmt.Errorf("%s: negative tick %d", where, ph.At)
		}
		if ph.At < cursor {
			return fmt.Errorf("%s: fires at tick %d but the schedule is already at tick %d (earlier phases' spaced injections overlap it)",
				where, ph.At, cursor)
		}
		cursor = ph.At
		if ph.Set == nil && ph.Crash == nil && ph.Depart == nil &&
			len(ph.Inject) == 0 && len(ph.Rejoin) == 0 && !ph.Recover {
			return fmt.Errorf("%s: has no actions", where)
		}
		if ph.Set != nil {
			if ph.Set.IsZero() {
				return fmt.Errorf("%s: empty set delta", where)
			}
			next, err := ph.Set.Preview(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			cfg = next
		}
		if ph.Crash != nil {
			if ph.Crash.Fraction < 0 || ph.Crash.Fraction > 1 {
				return fmt.Errorf("%s: crash fraction %v out of [0,1]", where, ph.Crash.Fraction)
			}
			if err := ph.Crash.ScoreManagersOf.validate(labels); err != nil {
				return fmt.Errorf("%s: crash: %w", where, err)
			}
		}
		if ph.Depart != nil {
			if err := ph.Depart.validate(labels); err != nil {
				return fmt.Errorf("%s: depart: %w", where, err)
			}
			for _, l := range ph.Depart.labels() {
				if labels[l] {
					return fmt.Errorf("%s: depart: duplicate label %q", where, l)
				}
				labels[l] = true
			}
		}
		for j := range ph.Inject {
			in := &ph.Inject[j]
			if err := in.validate(labels); err != nil {
				return fmt.Errorf("%s: injection %d: %w", where, j, err)
			}
			cursor += int64(in.count()) * in.SpacedBy
			for _, l := range in.labels() {
				if labels[l] {
					return fmt.Errorf("%s: injection %d: duplicate label %q", where, j, l)
				}
				labels[l] = true
			}
		}
		for _, ref := range ph.Rejoin {
			if ref == "" {
				return fmt.Errorf("%s: rejoin: empty label", where)
			}
			if !labels[ref] {
				return fmt.Errorf("%s: rejoin: %q does not name an earlier injection or departure label", where, ref)
			}
		}
	}
	if cursor > s.Base.NumTrans {
		return fmt.Errorf("scenario %q: phases run to tick %d, past the run length %d", s.Name, cursor, s.Base.NumTrans)
	}
	for _, name := range s.Output.Series {
		if !seriesNames[name] {
			return fmt.Errorf("scenario %q: unknown output series %q", s.Name, name)
		}
	}
	return nil
}

// label names a phase for error messages.
func (p *Phase) label() string {
	if p.Name != "" {
		return p.Name
	}
	return fmt.Sprintf("at %d", p.At)
}

// count is Count with its default applied.
func (in *Injection) count() int {
	if in.Count <= 0 {
		return 1
	}
	return in.Count
}

// count is Count with its default applied.
func (d *Departure) count() int {
	if d.Count <= 0 {
		return 1
	}
	return d.Count
}

// labels returns the label each departed peer binds: As itself for a
// single departure, "As-1" … "As-n" for a counted one, nothing when
// unlabelled.
func (d *Departure) labels() []string {
	if d.As == "" {
		return nil
	}
	n := d.count()
	if n == 1 {
		return []string{d.As}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", d.As, i+1)
	}
	return out
}

func (d *Departure) validate(labels map[string]bool) error {
	if d.Count < 0 {
		return fmt.Errorf("negative count %d", d.Count)
	}
	if d.Fraction < 0 || d.Fraction > 1 {
		return fmt.Errorf("fraction %v out of [0,1]", d.Fraction)
	}
	if d.ScoreManagersOf != nil {
		if d.Peers != nil {
			return fmt.Errorf("peers and scoreManagersOf are mutually exclusive")
		}
		if d.Count != 0 {
			return fmt.Errorf("count applies to peers selection, not scoreManagersOf")
		}
		if d.As != "" {
			return fmt.Errorf("as cannot label a scoreManagersOf departure (its size is only known at run time)")
		}
		if err := d.ScoreManagersOf.validate(labels); err != nil {
			return fmt.Errorf("scoreManagersOf: %w", err)
		}
		return nil
	}
	if d.Fraction != 0 {
		return fmt.Errorf("fraction applies to scoreManagersOf, not peers selection")
	}
	if d.Peers != nil {
		if err := d.Peers.validate(labels); err != nil {
			return fmt.Errorf("peers: %w", err)
		}
		if d.Peers.FallbackFirst && d.count() > 1 {
			return fmt.Errorf("fallbackFirst only applies to single-peer departures")
		}
	}
	return nil
}

// labels returns the label each repeat binds: As itself for a single
// injection, "As-1" … "As-n" for a repeated one, nothing when unlabelled.
func (in *Injection) labels() []string {
	if in.As == "" {
		return nil
	}
	n := in.count()
	if n == 1 {
		return []string{in.As}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", in.As, i+1)
	}
	return out
}

// classStyle resolves the injection's class and style enums, with the
// paper's default style per class.
func (in *Injection) classStyle() (peer.Class, peer.Style, error) {
	class, err := parseClass(in.Class)
	if err != nil {
		return 0, 0, err
	}
	if in.Style == "" {
		if class == peer.Uncooperative {
			return class, peer.Naive, nil
		}
		return class, peer.Selective, nil
	}
	style, err := parseStyle(in.Style)
	if err != nil {
		return 0, 0, err
	}
	return class, style, nil
}

func (in *Injection) validate(labels map[string]bool) error {
	class, style, err := in.classStyle()
	if err != nil {
		return err
	}
	if class == peer.Uncooperative && style == peer.Selective {
		return fmt.Errorf("uncooperative peers are always naive introducers (paper §4)")
	}
	if in.DefectAfter < 0 {
		return fmt.Errorf("negative defectAfter %d", in.DefectAfter)
	}
	if in.DefectAfter > 0 && class != peer.Cooperative {
		return fmt.Errorf("a traitor (defectAfter) must start cooperative")
	}
	if in.Count < 0 {
		return fmt.Errorf("negative count %d", in.Count)
	}
	if in.SpacedBy < 0 {
		return fmt.Errorf("negative spacedBy %d", in.SpacedBy)
	}
	if err := in.Introducer.validate(labels); err != nil {
		return fmt.Errorf("introducer: %w", err)
	}
	return nil
}

func (sel *Selector) validate(labels map[string]bool) error {
	if sel.Ref != "" {
		if sel.Style != "" || sel.Class != "" || sel.MinRep != 0 || sel.FallbackFirst {
			return fmt.Errorf("ref %q cannot combine with style/class/minRep/fallbackFirst", sel.Ref)
		}
		if !labels[sel.Ref] {
			return fmt.Errorf("ref %q does not name an earlier injection's label", sel.Ref)
		}
		return nil
	}
	if sel.Style != "" {
		if _, err := parseStyle(sel.Style); err != nil {
			return err
		}
	}
	if sel.Class != "" {
		if _, err := parseClass(sel.Class); err != nil {
			return err
		}
	}
	if sel.MinRep < 0 || sel.MinRep >= 1 {
		return fmt.Errorf("minRep %v out of [0,1)", sel.MinRep)
	}
	return nil
}

func parseClass(s string) (peer.Class, error) {
	switch s {
	case "cooperative":
		return peer.Cooperative, nil
	case "uncooperative":
		return peer.Uncooperative, nil
	}
	return 0, fmt.Errorf("unknown class %q (want cooperative or uncooperative)", s)
}

func parseStyle(s string) (peer.Style, error) {
	switch s {
	case "naive":
		return peer.Naive, nil
	case "selective":
		return peer.Selective, nil
	}
	return 0, fmt.Errorf("unknown style %q (want naive or selective)", s)
}
