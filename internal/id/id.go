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
	"errors"
	"fmt"
)

// Bits is the width of an identifier in bits.
const Bits = 160

// Bytes is the width of an identifier in bytes.
const Bytes = Bits / 8

// ID is a 160-bit identifier on the ring, stored big-endian: ID[0] is the
// most significant byte. The zero value is the identifier 0.
type ID [Bytes]byte

// ErrBadLength reports an attempt to decode an identifier from a byte slice
// or hex string of the wrong length.
var ErrBadLength = errors.New("id: wrong length for a 160-bit identifier")

// FromBytes builds an ID from exactly 20 bytes.
func FromBytes(b []byte) (ID, error) {
	var out ID
	if len(b) != Bytes {
		return out, fmt.Errorf("%w: got %d bytes", ErrBadLength, len(b))
	}
	copy(out[:], b)
	return out, nil
}

// FromHex decodes a 40-character hex string into an ID.
func FromHex(s string) (ID, error) {
	var out ID
	b, err := hex.DecodeString(s)
	if err != nil {
		return out, fmt.Errorf("id: decoding hex: %w", err)
	}
	return FromBytes(b)
}

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

// Add returns (d + o) mod 2^160.
func (d ID) Add(o ID) ID {
	var out ID
	var carry uint16
	for i := Bytes - 1; i >= 0; i-- {
		s := uint16(d[i]) + uint16(o[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

// Sub returns (d - o) mod 2^160, i.e. the clockwise distance from o to d.
func (d ID) Sub(o ID) ID {
	var out ID
	var borrow int16
	for i := Bytes - 1; i >= 0; i-- {
		s := int16(d[i]) - int16(o[i]) - borrow
		if s < 0 {
			s += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(s)
	}
	return out
}

// Distance returns the clockwise distance from d to o on the ring, i.e. how
// far one must travel in the increasing direction from d to reach o.
func (d ID) Distance(o ID) ID {
	return o.Sub(d)
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

// PrefixLen returns the number of leading bits d and o share; 160 when equal.
func (d ID) PrefixLen(o ID) int {
	for i := 0; i < Bytes; i++ {
		x := d[i] ^ o[i]
		if x == 0 {
			continue
		}
		n := 0
		for mask := byte(0x80); mask != 0 && x&mask == 0; mask >>= 1 {
			n++
		}
		return i*8 + n
	}
	return Bits
}

// Bit returns bit k of the identifier, where k=0 is the most significant
// bit. It panics if k is out of [0, Bits).
func (d ID) Bit(k int) int {
	if k < 0 || k >= Bits {
		panic(fmt.Sprintf("id: Bit index %d out of range [0,%d)", k, Bits))
	}
	return int(d[k/8]>>(7-k%8)) & 1
}
