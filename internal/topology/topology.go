// Package topology implements the two network topologies of the paper's
// simulator: "1) random and 2) scale-free. In the random topology, all
// nodes are equally likely to be chosen as the potential respondent. In
// the scale-free topology, the probability of a node being chosen as the
// potential respondent is distributed according to a power-law."
//
// The same selection bias applies to choosing a potential introducer for
// an arriving peer ("The introducer is also chosen depending on network
// topology").
//
// The scale-free topology is realised as a Barabási–Albert preferential
// attachment process: every arriving peer attaches to two existing peers
// chosen proportionally to degree, and respondents are then drawn
// proportionally to degree — which converges to the power-law degree
// distribution the paper stipulates.
package topology

import (
	"errors"
	"fmt"

	"repro/internal/id"
	"repro/internal/rng"
)

// Kind names a topology model.
type Kind string

// The supported topologies, matching the paper's Table 1 values.
const (
	Random   Kind = "random"
	PowerLaw Kind = "powerlaw"
)

// ParseKind converts a configuration string into a Kind.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case Random:
		return Random, nil
	case PowerLaw:
		return PowerLaw, nil
	}
	return "", fmt.Errorf("topology: unknown kind %q (want %q or %q)", s, Random, PowerLaw)
}

// Selector chooses peers according to a topology. Implementations are not
// safe for concurrent use.
type Selector interface {
	// Add registers a newly arrived peer, wiring it into the topology.
	Add(peer id.ID)
	// Remove detaches a departed peer: it can no longer be picked, and a
	// later Add re-wires it afresh (a rejoining peer re-attaches like a
	// newcomer). Removing an unregistered peer is a no-op.
	Remove(peer id.ID)
	// Pick draws one peer according to the topology's bias, excluding the
	// given peer (the requester cannot be its own respondent). It returns
	// false when no eligible peer exists.
	Pick(exclude id.ID) (id.ID, bool)
	// Len returns the number of registered peers.
	Len() int
	// Contains reports whether the peer is registered.
	Contains(peer id.ID) bool
}

// ErrUnknownKind reports an unsupported topology name.
var ErrUnknownKind = errors.New("topology: unknown kind")

// New builds a selector of the given kind driven by the given randomness.
func New(kind Kind, src *rng.Source) (Selector, error) {
	switch kind {
	case Random:
		return NewUniform(src), nil
	case PowerLaw:
		return NewScaleFree(src), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
}

// ---------------------------------------------------------------------------
// Uniform (the paper's "random" topology).

// Uniform selects every peer with equal probability.
type Uniform struct {
	src   *rng.Source
	peers []id.ID
	index map[id.ID]int
}

// NewUniform returns an empty uniform selector.
func NewUniform(src *rng.Source) *Uniform {
	return &Uniform{src: src, index: make(map[id.ID]int)}
}

// Add registers a peer. Adding a duplicate panics: the simulation assigns
// unique identifiers, so a duplicate signals a harness bug.
func (u *Uniform) Add(peer id.ID) {
	if _, ok := u.index[peer]; ok {
		//replend:allow nopanic the world assigns unique identifiers; a duplicate is a harness bug (documented above)
		panic(fmt.Sprintf("topology: duplicate peer %s", peer.Short()))
	}
	u.index[peer] = len(u.peers)
	u.peers = append(u.peers, peer)
}

// Remove drops a peer in O(1) by swapping the last slot into its place.
func (u *Uniform) Remove(peer id.ID) {
	i, ok := u.index[peer]
	if !ok {
		return
	}
	last := len(u.peers) - 1
	u.peers[i] = u.peers[last]
	u.index[u.peers[i]] = i
	u.peers = u.peers[:last]
	delete(u.index, peer)
}

// Pick draws a uniform peer other than exclude.
func (u *Uniform) Pick(exclude id.ID) (id.ID, bool) {
	n := len(u.peers)
	if n == 0 {
		return id.ID{}, false
	}
	if _, excluded := u.index[exclude]; excluded && n == 1 {
		return id.ID{}, false
	}
	for {
		p := u.peers[u.src.Intn(n)]
		if p != exclude {
			return p, true
		}
	}
}

// Len returns the number of registered peers.
func (u *Uniform) Len() int { return len(u.peers) }

// Contains reports registration.
func (u *Uniform) Contains(peer id.ID) bool {
	_, ok := u.index[peer]
	return ok
}

// ---------------------------------------------------------------------------
// Scale-free (Barabási–Albert preferential attachment).

// attachEdges is the number of edges each arriving peer creates.
const attachEdges = 2

// ScaleFree selects peers proportionally to their degree in a graph grown
// by preferential attachment. Departed peers leave tombstone slots (stubs
// index into the peers slice, so slots are never reused); their stubs are
// compacted away on removal, which keeps every live stub drawable.
type ScaleFree struct {
	src *rng.Source

	peers  []id.ID
	index  map[id.ID]int
	degree []int64
	alive  []bool
	live   int // registered (non-tombstone) peers
	// stubs lists peer indices, one entry per unit of degree; uniform
	// draws from it are degree-proportional draws. This is the classic
	// O(1) preferential-attachment sampler.
	stubs []int32
}

// NewScaleFree returns an empty scale-free selector where each arrival
// attaches to attachEdges existing peers.
func NewScaleFree(src *rng.Source) *ScaleFree {
	return &ScaleFree{src: src, index: make(map[id.ID]int)}
}

// Add wires a new peer into the graph: it attaches to up to attachEdges
// distinct existing peers chosen proportionally to degree. A re-added
// (rejoining) peer attaches afresh, like a newcomer.
func (s *ScaleFree) Add(peer id.ID) {
	if _, ok := s.index[peer]; ok {
		//replend:allow nopanic the world assigns unique identifiers; a duplicate is a harness bug
		panic(fmt.Sprintf("topology: duplicate peer %s", peer.Short()))
	}
	idx := len(s.peers)
	s.index[peer] = idx
	s.peers = append(s.peers, peer)
	s.degree = append(s.degree, 0)
	s.alive = append(s.alive, true)
	s.live++

	targets := s.pickAttachTargets(idx)
	for _, tgt := range targets {
		s.degree[idx]++
		s.degree[tgt]++
		s.stubs = append(s.stubs, int32(idx), int32(tgt))
	}
	if len(targets) == 0 {
		// First peer: give it one self-stub so it is drawable.
		s.degree[idx]++
		s.stubs = append(s.stubs, int32(idx))
	}
}

// Remove detaches a departed peer: its slot becomes a tombstone and every
// stub pointing at it is compacted away, so subsequent degree-biased
// draws never land on it. Its neighbours keep the degree the departed
// edges earned them — accumulated attractiveness outlives any single
// contact, the usual preferential-attachment churn treatment.
func (s *ScaleFree) Remove(peer id.ID) {
	idx, ok := s.index[peer]
	if !ok {
		return
	}
	delete(s.index, peer)
	s.alive[idx] = false
	s.degree[idx] = 0
	s.live--
	kept := s.stubs[:0]
	for _, t := range s.stubs {
		if int(t) != idx {
			kept = append(kept, t)
		}
	}
	s.stubs = kept
}

// pickAttachTargets draws up to attachEdges distinct live existing peers,
// preferentially by degree.
func (s *ScaleFree) pickAttachTargets(newIdx int) []int {
	existing := s.live - 1 // live peers other than the one being added
	if existing == 0 {
		return nil
	}
	want := attachEdges
	if want > existing {
		want = existing
	}
	probe := newIdx // uniform probes span the slots before the new peer
	chosen := make(map[int]bool, want)
	out := make([]int, 0, want)
	for len(out) < want {
		var t int
		if len(s.stubs) == 0 {
			t = s.src.Intn(probe)
		} else {
			t = int(s.stubs[s.src.Intn(len(s.stubs))])
		}
		if t >= newIdx || chosen[t] || !s.alive[t] {
			// Fall back to uniform probing when the stub draw keeps
			// hitting duplicates (tiny graphs) or tombstones.
			t = s.src.Intn(probe)
			if chosen[t] || !s.alive[t] {
				continue
			}
		}
		chosen[t] = true
		out = append(out, t)
	}
	return out
}

// Pick draws a peer proportionally to degree, excluding the given peer.
func (s *ScaleFree) Pick(exclude id.ID) (id.ID, bool) {
	if s.live == 0 {
		return id.ID{}, false
	}
	if _, excluded := s.index[exclude]; excluded && s.live == 1 {
		return id.ID{}, false
	}
	// Degree-proportional draw with bounded rejection on the excluded
	// peer; fall back to uniform if the excluded peer dominates the stubs.
	for tries := 0; tries < 32; tries++ {
		p := s.peers[s.stubs[s.src.Intn(len(s.stubs))]]
		if p != exclude {
			return p, true
		}
	}
	for {
		i := s.src.Intn(len(s.peers))
		if !s.alive[i] {
			continue
		}
		if p := s.peers[i]; p != exclude {
			return p, true
		}
	}
}

// Len returns the number of registered peers.
func (s *ScaleFree) Len() int { return s.live }

// Contains reports registration.
func (s *ScaleFree) Contains(peer id.ID) bool {
	_, ok := s.index[peer]
	return ok
}

// Degree returns the peer's degree in the attachment graph (0 if unknown).
func (s *ScaleFree) Degree(peer id.ID) int64 {
	i, ok := s.index[peer]
	if !ok {
		return 0
	}
	return s.degree[i]
}
