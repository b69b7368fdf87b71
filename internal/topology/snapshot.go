package topology

import (
	"fmt"

	"repro/internal/id"
	"repro/internal/rng"
)

// Checkpoint support. Both selectors carry history-dependent slice layouts
// (Uniform's swap-delete order, ScaleFree's tombstone slots and stub
// multiset) that future draws depend on, so the capture is verbatim: the
// slices as they stand plus the generator state. Derived indexes are
// rebuilt on restore.

// State is the serializable state of either selector kind.
type State struct {
	Kind Kind
	Src  [4]uint64

	// Uniform: the peers slice in its exact (swap-delete shaped) order.
	Peers []id.ID

	// ScaleFree: slot-indexed peer table with tombstones, plus the stub
	// multiset. Alive is encoded alongside; Live and the index are derived.
	Degree []int64
	Alive  []bool
	Stubs  []int32
}

// ExportState captures the selector's state. It fails on selector
// implementations the checkpoint format does not know about.
func ExportState(sel Selector) (State, error) {
	switch s := sel.(type) {
	case *Uniform:
		return State{
			Kind:  Random,
			Src:   s.src.State(),
			Peers: append([]id.ID(nil), s.peers...),
		}, nil
	case *ScaleFree:
		return State{
			Kind:   PowerLaw,
			Src:    s.src.State(),
			Peers:  append([]id.ID(nil), s.peers...),
			Degree: append([]int64(nil), s.degree...),
			Alive:  append([]bool(nil), s.alive...),
			Stubs:  append([]int32(nil), s.stubs...),
		}, nil
	}
	return State{}, fmt.Errorf("topology: cannot checkpoint selector type %T", sel)
}

// RestoreState reconstructs a selector from a captured state.
func RestoreState(st State) (Selector, error) {
	switch st.Kind {
	case Random:
		u := NewUniform(rng.FromState(st.Src))
		u.peers = append([]id.ID(nil), st.Peers...)
		u.index = make(map[id.ID]int, len(u.peers))
		for i, p := range u.peers {
			u.index[p] = i
		}
		if len(u.index) != len(u.peers) {
			return nil, fmt.Errorf("topology: restore: duplicate peers in uniform state")
		}
		return u, nil
	case PowerLaw:
		if len(st.Degree) != len(st.Peers) || len(st.Alive) != len(st.Peers) {
			return nil, fmt.Errorf("topology: restore: scale-free slot tables disagree (%d peers, %d degrees, %d alive)",
				len(st.Peers), len(st.Degree), len(st.Alive))
		}
		s := NewScaleFree(rng.FromState(st.Src))
		s.peers = append([]id.ID(nil), st.Peers...)
		s.degree = append([]int64(nil), st.Degree...)
		s.alive = append([]bool(nil), st.Alive...)
		s.stubs = append([]int32(nil), st.Stubs...)
		live := 0
		for _, alive := range s.alive {
			if alive {
				live++
			}
		}
		s.index = make(map[id.ID]int, live)
		for i, p := range s.peers {
			if !s.alive[i] {
				continue
			}
			if _, dup := s.index[p]; dup {
				return nil, fmt.Errorf("topology: restore: duplicate live peer %s", p.Short())
			}
			s.index[p] = i
			s.live++
		}
		for _, t := range s.stubs {
			if int(t) < 0 || int(t) >= len(s.peers) {
				return nil, fmt.Errorf("topology: restore: stub index %d out of range", t)
			}
		}
		return s, nil
	}
	return nil, fmt.Errorf("topology: restore: unknown kind %q", st.Kind)
}
