package overlay

import (
	"encoding/binary"

	"repro/internal/id"
)

// The ring's ordered membership index is a treap threaded directly through
// the member Nodes (no separate index allocation per member), keyed by the
// member identifier with heap priorities derived deterministically from
// the identifier itself — so the index shape, and therefore every query,
// depends only on the membership set, never on insertion order or a
// random source. Joins, leaves, lookups and ceiling queries are O(log n)
// expected, replacing the O(n) memmove of a sorted slice.

// keyHi extracts the 8 most significant bytes of an identifier. IDs are
// hash outputs, so two distinct IDs almost never share them; descent
// compares these single words and falls back to the full 20-byte compare
// only on equality.
func keyHi(n id.ID) uint64 { return binary.BigEndian.Uint64(n[0:8]) }

// treapPriority hashes an identifier onto a heap priority. The mix must be
// independent of the key order (identifiers compare big-endian from byte
// 0), so it folds both ends of the ID through a splitmix64 finalizer.
func treapPriority(n id.ID) uint64 {
	x := binary.BigEndian.Uint64(n[0:8]) ^ binary.BigEndian.Uint64(n[id.Bytes-8:])
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cmpKey compares a (hi, full) search key against a node's ID.
func cmpKey(hi uint64, key id.ID, t *Node) int {
	switch {
	case hi < t.keyHi:
		return -1
	case hi > t.keyHi:
		return 1
	}
	return key.Cmp(t.ID)
}

// treapInsert adds a node (its ID must not be present; its treap fields
// must be initialised) and returns the new root.
func treapInsert(root, node *Node) *Node {
	if root == nil {
		return node
	}
	if cmpKey(node.keyHi, node.ID, root) < 0 {
		root.tLeft = treapInsert(root.tLeft, node)
		if root.tLeft.prio > root.prio {
			root = rotateRight(root)
		}
	} else {
		root.tRight = treapInsert(root.tRight, node)
		if root.tRight.prio > root.prio {
			root = rotateLeft(root)
		}
	}
	return root
}

// treapRemove deletes the entry keyed by n, if present, and returns the
// new root.
func treapRemove(root *Node, n id.ID) *Node {
	if root == nil {
		return nil
	}
	switch c := cmpKey(keyHi(n), n, root); {
	case c < 0:
		root.tLeft = treapRemove(root.tLeft, n)
	case c > 0:
		root.tRight = treapRemove(root.tRight, n)
	default:
		// Rotate the doomed node down until it is a leaf.
		switch {
		case root.tLeft == nil:
			return root.tRight
		case root.tRight == nil:
			return root.tLeft
		case root.tLeft.prio > root.tRight.prio:
			root = rotateRight(root)
			root.tRight = treapRemove(root.tRight, n)
		default:
			root = rotateLeft(root)
			root.tLeft = treapRemove(root.tLeft, n)
		}
	}
	return root
}

func rotateRight(t *Node) *Node {
	l := t.tLeft
	t.tLeft = l.tRight
	l.tRight = t
	return l
}

func rotateLeft(t *Node) *Node {
	r := t.tRight
	t.tRight = r.tLeft
	r.tLeft = t
	return r
}

// treapFind returns the member node keyed by n, or nil when n is not a
// member.
func treapFind(root *Node, n id.ID) *Node {
	hi := keyHi(n)
	for root != nil {
		switch c := cmpKey(hi, n, root); {
		case c < 0:
			root = root.tLeft
		case c > 0:
			root = root.tRight
		default:
			return root
		}
	}
	return nil
}

// treapCeiling returns the node with the smallest ID >= key, or nil when
// every member is below key (the caller wraps to the minimum).
func treapCeiling(root *Node, key id.ID) *Node {
	hi := keyHi(key)
	var best *Node
	for root != nil {
		if cmpKey(hi, key, root) <= 0 {
			best = root
			root = root.tLeft
		} else {
			root = root.tRight
		}
	}
	return best
}

// treapMin returns the node with the smallest ID, or nil on an empty index.
func treapMin(root *Node) *Node {
	if root == nil {
		return nil
	}
	for root.tLeft != nil {
		root = root.tLeft
	}
	return root
}
