// Package overlay implements the structured overlay the paper assumes:
// "We assume the existence of a structured overlay that uses distributed
// hash tables for routing and for selecting score managers that keep track
// of all feedback pertaining to a peer."
//
// The overlay is a Chord-style ring over the 160-bit identifier space of
// package id. Key k is owned by successor(k), the first node clockwise
// from k. The simulation only ever selects owners, never routes to them,
// so the ring keeps membership, live neighbour pointers and placement,
// and answers successor(k) from an ordered index.
//
// Score managers for a peer p are the owners of Hash(p ‖ r) for replica
// indices r = 0..numSM-1 — so, exactly as the paper notes, "the score
// managers assigned to a peer change over time" as nodes join, and using
// multiple score managers gives redundancy against that churn.
//
// The ring holds membership only, no per-peer placement state: each
// placement query hashes the replica keys it consults. A caller that asks
// for one peer's placement repeatedly caches it. The simulation world
// does: it fills a peer's placement about once, and on each join or leave
// it repairs the fills from the ownership arcs ScoreManagersTracked
// reported, without hashing again.
package overlay

import (
	"errors"
	"fmt"

	"repro/internal/arena"
	"repro/internal/id"
)

// Node is one overlay member's ring state. Neighbour pointers (next,
// prev) are maintained eagerly on every join and leave — the incremental
// analogue of Chord stabilisation fixing adjacent successors — so joins
// and leaves are O(log n), essential because the simulated communities
// grow by thousands of nodes.
type Node struct {
	ID id.ID

	next, prev *Node // live ring neighbours, maintained on join/leave

	// Membership-index (treap) threading; see treap.go.
	tLeft, tRight *Node
	keyHi         uint64 // first 8 bytes of ID: fast-path comparand
	prio          uint64 // deterministic heap priority
}

// Ring is the overlay membership and placement oracle. The simulation is
// single-threaded, so Ring performs maintenance eagerly and
// deterministically instead of running Chord's periodic stabilisation
// protocol; the neighbour pointers it maintains per node are exactly
// what stabilisation would converge to.
//
// Membership lives in two structures kept in lockstep: a treap keyed by
// identifier (O(log n) join/leave/lookup/ceiling, deterministic shape) and
// a circular doubly-linked list threading the member nodes in ring order
// (O(1) neighbour access). Placement is computed afresh on every query:
// the replica keys are a pure function of the peer's identifier, and the
// ring keeps no memo of them.
type Ring struct {
	slab  arena.Slab[Node] // node records; churn recycles slots
	root  *Node            // ordered membership index (treap threaded through Nodes)
	size  int
	epoch int64 // bumped on every membership change
}

// Errors returned by Ring operations.
var (
	ErrEmpty     = errors.New("overlay: ring has no members")
	ErrDuplicate = errors.New("overlay: node already in ring")
	ErrNotMember = errors.New("overlay: node not in ring")
)

// NewRing returns an empty overlay.
func NewRing() *Ring { return &Ring{} }

// Size returns the number of member nodes.
func (r *Ring) Size() int { return r.size }

// Epoch returns the membership epoch, which advances on every join or
// leave. Callers may cache placement decisions keyed by it.
func (r *Ring) Epoch() int64 { return r.epoch }

// Members returns the member identifiers in ascending order (copy).
func (r *Ring) Members() []id.ID {
	if r.size == 0 {
		return nil
	}
	out := make([]id.ID, 0, r.size)
	first := treapMin(r.root)
	for n, i := first, 0; i < r.size; n, i = n.next, i+1 {
		out = append(out, n.ID)
	}
	return out
}

// Contains reports membership.
func (r *Ring) Contains(n id.ID) bool { return treapFind(r.root, n) != nil }

// Join adds a node to the ring: O(log n) index insert plus an O(1) splice
// into the neighbour list.
func (r *Ring) Join(n id.ID) error {
	// The first member clockwise from n takes n as its new predecessor;
	// the same search finds n itself if it is already a member.
	succ := treapCeiling(r.root, n)
	if succ != nil && succ.ID == n {
		return fmt.Errorf("%w: %s", ErrDuplicate, n.Short())
	}
	node := r.slab.Alloc()
	node.ID, node.keyHi, node.prio = n, keyHi(n), treapPriority(n)
	if r.size == 0 {
		node.next, node.prev = node, node
	} else {
		// Splice n in front of its successor.
		if succ == nil {
			succ = treapMin(r.root)
		}
		node.prev = succ.prev
		node.next = succ
		succ.prev.next = node
		succ.prev = node
	}
	r.root = treapInsert(r.root, node)
	r.size++
	r.epoch++
	return nil
}

// Leave removes a node (graceful departure or crash — ring-wise they are
// the same once neighbours repair).
func (r *Ring) Leave(n id.ID) error {
	node := treapFind(r.root, n)
	if node == nil {
		return fmt.Errorf("%w: %s", ErrNotMember, n.Short())
	}
	node.prev.next = node.next
	node.next.prev = node.prev
	r.root = treapRemove(r.root, n)
	r.slab.Free(node)
	r.size--
	r.epoch++
	return nil
}

// NextMember returns the member immediately clockwise from n (n's live
// successor), and false if n is not a member. On a single-member ring it
// returns n itself.
func (r *Ring) NextMember(n id.ID) (id.ID, bool) {
	node := treapFind(r.root, n)
	if node == nil {
		return id.ID{}, false
	}
	return node.next.ID, true
}

// successor returns the member owning key: the first clockwise from it.
func (r *Ring) successor(key id.ID) *Node {
	if r.size == 0 {
		//replend:allow nopanic callers query ownership only on non-empty rings (worlds start with founders); an empty-ring query is a caller bug
		panic("overlay: successor on empty ring")
	}
	owner := treapCeiling(r.root, key)
	if owner == nil {
		owner = treapMin(r.root)
	}
	return owner
}

// Successor returns the node owning key, per the ring oracle (no routing).
func (r *Ring) Successor(key id.ID) (id.ID, error) {
	if r.size == 0 {
		return id.ID{}, ErrEmpty
	}
	return r.successor(key).ID, nil
}

// ScoreManagers returns the numSM owners of the peer's replica keys —
// the nodes that hold feedback about it. The peer itself is excluded when
// the ring has enough other members (a peer must not manage its own
// reputation); the replica index keeps advancing until numSM distinct
// managers are found.
func (r *Ring) ScoreManagers(peer id.ID, numSM int) ([]id.ID, error) {
	return r.ScoreManagersTracked(peer, numSM, nil)
}

// ScoreManagersTracked is ScoreManagers with an observation hook: track
// (when non-nil) receives every (key, owner) ownership decision the
// placement consulted — each replica key with its owning member, plus a
// (peer, next-member) pair whenever self-ownership forced a clockwise
// skip. The result is a pure function of those decisions, so a caller
// caching it stays exact by invalidating whenever a membership change can
// alter any reported arc (key, owner]: this is how the simulation world
// turns whole-ring epoch invalidation into per-peer incremental eviction.
func (r *Ring) ScoreManagersTracked(peer id.ID, numSM int, track func(key, owner id.ID)) ([]id.ID, error) {
	if numSM <= 0 {
		return nil, fmt.Errorf("overlay: numSM must be positive, got %d", numSM)
	}
	if r.size == 0 {
		return nil, ErrEmpty
	}
	managers := make([]id.ID, 0, numSM)
	maxReplica := numSM * 8 // generous: hash collisions across replicas are rare
	for rep := 0; rep < maxReplica && len(managers) < numSM; rep++ {
		key := peer.Replica(rep)
		node := r.successor(key)
		owner := node.ID
		if track != nil {
			track(key, owner)
		}
		if owner == peer {
			if r.size == 1 {
				// Single-member ring: the peer must self-manage.
				if !id.Contains(managers, owner) {
					managers = append(managers, owner)
				}
				continue
			}
			// A peer must not manage its own reputation: walk clockwise to
			// the next member, like replica placement past a responsible
			// node in a real DHT.
			owner = node.next.ID
			if track != nil {
				track(peer, owner)
			}
		}
		if !id.Contains(managers, owner) {
			managers = append(managers, owner)
		}
	}
	// A ring smaller than numSM cannot supply numSM distinct managers;
	// cycle over the distinct ones found so callers always get numSM slots.
	distinct := len(managers)
	for i := 0; len(managers) < numSM; i++ {
		managers = append(managers, managers[i%distinct])
	}
	return managers, nil
}
