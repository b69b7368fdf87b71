// Package arena provides the dense per-peer memory layout under the
// simulator: an intern-only handle table that numbers identities, the
// growth rule and packed 64-bit word of the record columns that ROCQ and
// lending keep sorted by handle, and a chunked, pointer-stable slab
// allocator. Together they flatten the pointer webs that per-peer maps
// grow into at large populations — million-peer worlds index flat slices
// by handle instead of chasing heap-scattered map entries.
//
// Determinism contract: a table numbers identities in first-sight order,
// which the simulation's (deterministic) event order drives, and never
// reuses a number, so the same run always produces the same id→handle
// table. No checkpoint carries the table: a restored world numbers its
// identities afresh, in restore order. So nothing downstream may let
// handle order reach an output byte — output iteration stays over sorted
// ids or recorded insertion orders (see docs/determinism.md).
package arena

import (
	"maps"
	"math"
	"slices"

	"repro/internal/id"
)

// Ordinal is a dense index into per-identity arenas: a handle. It names
// one identity for the lifetime of its table.
type Ordinal int32

// None is the ordinal returned for unknown ids.
const None Ordinal = -1

// Ordinals is a handle table: it interns peer ids, numbering each from 0
// on first sight, and never releases one, so a handle names one identity
// for the table's lifetime. The zero value is not usable; call
// NewOrdinals.
type Ordinals struct {
	index map[id.ID]Ordinal
	ids   []id.ID // ordinal → id
}

// NewOrdinals returns an empty table.
func NewOrdinals() *Ordinals {
	return &Ordinals{index: make(map[id.ID]Ordinal)}
}

// Get returns the ordinal interned for pid, or (None, false).
func (o *Ordinals) Get(pid id.ID) (Ordinal, bool) {
	ord, ok := o.index[pid]
	if !ok {
		return None, false
	}
	return ord, true
}

// Intern returns pid's ordinal, assigning the next one on first sight.
func (o *Ordinals) Intern(pid id.ID) Ordinal {
	if ord, ok := o.index[pid]; ok {
		return ord
	}
	ord := Ordinal(len(o.ids))
	o.index[pid] = ord
	o.ids = append(o.ids, pid)
	return ord
}

// ID returns the id holding ord, or (zero, false) if ord is out of range.
func (o *Ordinals) ID(ord Ordinal) (id.ID, bool) {
	if ord < 0 || int(ord) >= len(o.ids) {
		return id.ID{}, false
	}
	return o.ids[ord], true
}

// Reserve makes room for n more identities, so a table about to take n
// of them (a restore refilling it) grows once instead of step by step.
func (o *Ordinals) Reserve(n int) {
	if n <= 0 {
		return
	}
	index := make(map[id.ID]Ordinal, len(o.index)+n)
	maps.Copy(index, o.index)
	o.index = index
	o.ids = slices.Grow(o.ids, n)
}

// SortedByID returns every ordinal, in ascending order of the identifier
// it names: the one sorted walk a checkpoint export makes of a table,
// and the order the world rebuilds its placement index in.
func (o *Ordinals) SortedByID() []Ordinal {
	out := make([]Ordinal, len(o.ids))
	for i := range out {
		out[i] = Ordinal(i)
	}
	slices.SortFunc(out, func(a, b Ordinal) int { return o.ids[a].Cmp(o.ids[b]) })
	return out
}

// Len returns the number of identities interned.
func (o *Ordinals) Len() int { return len(o.ids) }

// Piece returns table[from:] capped at its length, or nil when empty: one
// record's share of a backing array its whole table is cut from. The cap
// means an append to one record's piece reallocates instead of writing
// into the next record's.
func Piece[T any](table []T, from int) []T {
	if from == len(table) {
		return nil
	}
	return table[from:len(table):len(table)]
}

// Take cuts the next n elements off the front of *table and returns them
// capped at n, or nil when n is 0: a table sized for every record it
// backs hands out each record's piece without allocating. A table with
// fewer than n elements left gives a fresh array instead.
func Take[T any](table *[]T, n int) []T {
	switch {
	case n == 0:
		return nil
	case len(*table) < n:
		return make([]T, n)
	}
	p := (*table)[:n:n]
	*table = (*table)[n:]
	return p
}

// InsertAt inserts v at position i of a column, shifting the tail up by
// one; i = len(col) appends. A full column doubles its capacity,
// starting from 8, so a small column is made once instead of at every
// power of two: 64 inserts into a nil column make it four times, at 8,
// 16, 32 and 64.
func InsertAt[T any](col []T, i int, v T) []T {
	if len(col) == cap(col) {
		grown := make([]T, len(col)+1, max(8, 2*cap(col)))
		copy(grown, col[:i])
		grown[i] = v
		copy(grown[i+1:], col[i:])
		return grown
	}
	col = col[:len(col)+1]
	copy(col[i+1:], col[i:])
	col[i] = v
	return col
}

// Word is a 64-bit value held as two 32-bit halves, low half first. It
// is aligned to 4 bytes, so a record that pairs it with a handle packs
// to 12 B where a float64, int64 or uint64 field would pad the record
// to 16. Every conversion keeps the exact bits: a value reads back as it
// was stored, signed zeros and NaN payloads included.
type Word [2]uint32

// Uint64Word packs u.
func Uint64Word(u uint64) Word { return Word{uint32(u), uint32(u >> 32)} }

// Uint64 returns the packed value.
func (w Word) Uint64() uint64 { return uint64(w[0]) | uint64(w[1])<<32 }

// Float64Word packs f's bits.
func Float64Word(f float64) Word { return Uint64Word(math.Float64bits(f)) }

// Float64 returns the packed float.
func (w Word) Float64() float64 { return math.Float64frombits(w.Uint64()) }

// Int64Word packs i.
func Int64Word(i int64) Word { return Uint64Word(uint64(i)) }

// Int64 returns the packed integer.
func (w Word) Int64() int64 { return int64(w.Uint64()) }

// slabChunk is the fixed allocation unit of a Slab. Chunks never move
// once allocated, so pointers handed out by Alloc stay valid for the
// life of the slab.
const slabChunk = 256

// Slab is a chunked, pointer-stable allocator for per-peer records.
// Alloc returns a zeroed *T from the current chunk (or the free-list);
// Free zeroes the record and recycles it LIFO. Records are never
// individually garbage-collected — the point is to keep millions of
// small structs in a handful of large allocations instead of a
// pointer web the collector must trace object by object.
type Slab[T any] struct {
	chunks [][]T
	next   int // index into the last chunk
	free   []*T
}

// Alloc returns a zeroed record.
func (s *Slab[T]) Alloc() *T {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	if len(s.chunks) == 0 || s.next == slabChunk {
		s.chunks = append(s.chunks, make([]T, slabChunk))
		s.next = 0
	}
	p := &s.chunks[len(s.chunks)-1][s.next]
	s.next++
	return p
}

// Free zeroes the record and returns it to the free-list. The caller
// must not retain the pointer afterwards.
func (s *Slab[T]) Free(p *T) {
	var zero T
	*p = zero
	s.free = append(s.free, p)
}
