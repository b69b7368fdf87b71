// Package id implements the 160-bit circular identifier space used by the
// structured overlay. Identifiers name both peers and keys; score managers
// for a peer are located by hashing the peer's identifier together with a
// replica index and routing to the closest node on the ring.
//
// The identifier space is the ring of integers modulo 2^160, matching the
// output width of SHA-1, which the original ROCQ/Chord-era systems used.
package id

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Bits is the width of an identifier in bits.
const Bits = 160

// Bytes is the width of an identifier in bytes.
const Bytes = Bits / 8

// ID is a 160-bit identifier on the ring, stored big-endian: ID[0] is the
// most significant byte. The zero value is the identifier 0.
type ID [Bytes]byte

// Hash maps arbitrary data onto the ring using SHA-1.
func Hash(data []byte) ID {
	return ID(sha1.Sum(data))
}

// HashString maps a string onto the ring using SHA-1.
func HashString(s string) ID {
	return Hash([]byte(s))
}

// Replica derives the identifier of the r-th score-manager replica for this
// identifier: Hash(id || uint32(r)). Distinct replica indices land on
// independent, deterministic points of the ring, which is how the paper
// places numSM score managers per peer.
func (d ID) Replica(r int) ID {
	var buf [Bytes + 4]byte
	copy(buf[:Bytes], d[:])
	binary.BigEndian.PutUint32(buf[Bytes:], uint32(r))
	return Hash(buf[:])
}

// FromUint64 places a uint64 on the ring (in the low-order bytes). Useful
// for tests that want small, readable identifiers.
func FromUint64(v uint64) ID {
	var out ID
	binary.BigEndian.PutUint64(out[Bytes-8:], v)
	return out
}

// Uint64 returns the low-order 64 bits of the identifier.
func (d ID) Uint64() uint64 {
	return binary.BigEndian.Uint64(d[Bytes-8:])
}

// String renders the identifier as 40 hex digits.
func (d ID) String() string {
	return hex.EncodeToString(d[:])
}

// Short renders the leading 8 hex digits, for compact logs.
func (d ID) Short() string {
	return hex.EncodeToString(d[:4])
}

// Cmp compares two identifiers as 160-bit unsigned integers, returning
// -1, 0, or +1. Big-endian storage lets it compare three machine words
// instead of looping over bytes — this is the innermost operation of
// every overlay index lookup, and random identifiers
// almost always decide on the first word.
func (d ID) Cmp(o ID) int {
	a, b := binary.BigEndian.Uint64(d[0:8]), binary.BigEndian.Uint64(o[0:8])
	if a != b {
		if a < b {
			return -1
		}
		return 1
	}
	a, b = binary.BigEndian.Uint64(d[8:16]), binary.BigEndian.Uint64(o[8:16])
	if a != b {
		if a < b {
			return -1
		}
		return 1
	}
	x, y := binary.BigEndian.Uint32(d[16:20]), binary.BigEndian.Uint32(o[16:20])
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// Less reports whether d < o as unsigned integers.
func (d ID) Less(o ID) bool { return d.Cmp(o) < 0 }

// Ascending checks that the keys key picks from recs are strictly
// ascending under compare, the order every checkpoint export writes, so a
// duplicate is refused too. The error names the first key out of order
// and the key it follows.
func Ascending[T, K any](recs []T, key func(T) K, compare func(K, K) int) error {
	for i := 1; i < len(recs); i++ {
		if prev, cur := key(recs[i-1]), key(recs[i]); compare(prev, cur) >= 0 {
			return fmt.Errorf("%v follows %v: not strictly ascending", cur, prev)
		}
	}
	return nil
}

// Contains reports whether x appears in list. Intended for the small
// fixed-size sets the overlay works with (manager sets, successor
// lists), where a linear scan beats hashing.
func Contains(list []ID, x ID) bool {
	for _, m := range list {
		if m == x {
			return true
		}
	}
	return false
}

// IsZero reports whether the identifier is 0.
func (d ID) IsZero() bool {
	for _, b := range d {
		if b != 0 {
			return false
		}
	}
	return true
}

// Between reports whether d lies on the clockwise arc (from, to), exclusive
// of both endpoints. When from == to the arc is the whole ring minus that
// single point, matching Chord's convention.
func (d ID) Between(from, to ID) bool {
	if from.Cmp(to) < 0 {
		return from.Cmp(d) < 0 && d.Cmp(to) < 0
	}
	if from.Cmp(to) > 0 { // arc wraps zero
		return from.Cmp(d) < 0 || d.Cmp(to) < 0
	}
	// from == to: everything except the point itself.
	return d.Cmp(from) != 0
}
