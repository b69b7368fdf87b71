package topology

import (
	"fmt"
	"testing"

	"repro/internal/id"
	"repro/internal/rng"
)

// selectors builds one of each kind over the same peer set.
func selectors(t *testing.T, n int) []Selector {
	t.Helper()
	out := []Selector{NewUniform(rng.New(1)), NewScaleFree(rng.New(2))}
	for _, s := range out {
		for i := 0; i < n; i++ {
			s.Add(id.HashString(fmt.Sprintf("peer-%d", i)))
		}
	}
	return out
}

func TestRemoveDetachesPeer(t *testing.T) {
	for _, s := range selectors(t, 50) {
		victim := id.HashString("peer-7")
		s.Remove(victim)
		if s.Contains(victim) {
			t.Fatalf("%T still contains the removed peer", s)
		}
		if got := s.Len(); got != 49 {
			t.Fatalf("%T: Len() = %d after removal, want 49", s, got)
		}
		for i := 0; i < 5_000; i++ {
			p, ok := s.Pick(id.ID{})
			if !ok {
				t.Fatalf("%T: pick failed with 49 peers", s)
			}
			if p == victim {
				t.Fatalf("%T picked the removed peer", s)
			}
		}
		// Removing an unregistered peer is a no-op.
		s.Remove(id.HashString("nobody"))
		if got := s.Len(); got != 49 {
			t.Fatalf("%T: Len() = %d after no-op removal, want 49", s, got)
		}
	}
}

func TestRemoveThenReAddRejoins(t *testing.T) {
	for _, s := range selectors(t, 20) {
		victim := id.HashString("peer-3")
		s.Remove(victim)
		s.Add(victim) // a rejoining peer re-wires like a newcomer
		if !s.Contains(victim) || s.Len() != 20 {
			t.Fatalf("%T: re-add failed (len %d)", s, s.Len())
		}
		found := false
		for i := 0; i < 20_000 && !found; i++ {
			p, _ := s.Pick(id.ID{})
			found = p == victim
		}
		if !found {
			t.Fatalf("%T never picks the re-added peer", s)
		}
	}
}

func TestRemoveDownToOne(t *testing.T) {
	for _, s := range selectors(t, 5) {
		for i := 0; i < 4; i++ {
			s.Remove(id.HashString(fmt.Sprintf("peer-%d", i)))
		}
		last := id.HashString("peer-4")
		if p, ok := s.Pick(id.ID{}); !ok || p != last {
			t.Fatalf("%T: last survivor not pickable (got %v, %v)", s, p.Short(), ok)
		}
		// The survivor excluded: nothing left to pick.
		if _, ok := s.Pick(last); ok {
			t.Fatalf("%T picked something with the only peer excluded", s)
		}
	}
}

func TestScaleFreeRemovalChurn(t *testing.T) {
	s := NewScaleFree(rng.New(9))
	src := rng.New(10)
	var live []id.ID
	for step := 0; step < 2_000; step++ {
		switch {
		case len(live) < 3 || src.Bernoulli(0.55):
			p := id.HashString(fmt.Sprintf("churn-%d", step))
			s.Add(p)
			live = append(live, p)
		default:
			i := src.Intn(len(live))
			s.Remove(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		if s.Len() != len(live) {
			t.Fatalf("step %d: Len() = %d, want %d", step, s.Len(), len(live))
		}
		if len(live) > 1 {
			p, ok := s.Pick(live[0])
			if !ok || p == live[0] || !s.Contains(p) {
				t.Fatalf("step %d: bad pick %v %v", step, p.Short(), ok)
			}
		}
	}
}
