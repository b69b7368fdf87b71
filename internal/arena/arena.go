// Package arena provides the dense per-peer memory layout under the
// simulator: a stable peer-ordinal allocator with a free-list, and a
// chunked, pointer-stable slab allocator. Together they flatten the
// pointer webs that per-peer maps grow into at large populations —
// million-peer worlds index flat slices by ordinal instead of chasing
// heap-scattered map entries.
//
// Determinism contract: ordinal assignment is driven entirely by the
// simulation's (deterministic) event order, and the free-list is LIFO,
// so the same run always produces the same id→ordinal table. No
// checkpoint carries the table: a restored world numbers its peers
// afresh, in restore order. So nothing downstream may let ordinal order
// reach an output byte — output iteration stays over sorted ids or
// recorded insertion orders (see docs/determinism.md).
package arena

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/id"
)

// Ordinal is a dense index into per-peer arenas. Ordinals are stable
// for the lifetime of a peer's record and recycled (LIFO) after
// release, so arena slices stay packed under churn instead of growing
// without bound.
type Ordinal int32

// None is the ordinal returned for unknown ids.
const None Ordinal = -1

// Ordinals allocates dense ordinals for peer ids. The zero value is not
// usable; call NewOrdinals.
type Ordinals struct {
	index map[id.ID]Ordinal
	ids   []id.ID   // ordinal → id; id.ID zero value marks a free slot
	live  []bool    // ordinal → currently assigned
	free  []Ordinal // LIFO free-list of released ordinals
}

// NewOrdinals returns an empty allocator.
func NewOrdinals() *Ordinals {
	return &Ordinals{index: make(map[id.ID]Ordinal)}
}

// Get returns the ordinal assigned to pid, or (None, false).
func (o *Ordinals) Get(pid id.ID) (Ordinal, bool) {
	ord, ok := o.index[pid]
	if !ok {
		return None, false
	}
	return ord, true
}

// Assign allocates an ordinal for pid, reusing the most recently
// released slot if one exists. Assigning an id that already holds an
// ordinal is a programming error.
func (o *Ordinals) Assign(pid id.ID) Ordinal {
	if _, ok := o.index[pid]; ok {
		//replend:allow nopanic double-assignment is a programming error by design; admission and rejoin paths release before reassigning
		panic(fmt.Sprintf("arena: ordinal already assigned for %v", pid))
	}
	var ord Ordinal
	if n := len(o.free); n > 0 {
		ord = o.free[n-1]
		o.free = o.free[:n-1]
	} else {
		ord = Ordinal(len(o.ids))
		o.ids = append(o.ids, id.ID{})
		o.live = append(o.live, false)
	}
	o.index[pid] = ord
	o.ids[ord] = pid
	o.live[ord] = true
	return ord
}

// Intern returns pid's ordinal, assigning one on first sight. A table
// that only ever interns is a handle table: with no Release, ordinals
// are never reused, so an ordinal names one identity for the table's
// lifetime.
func (o *Ordinals) Intern(pid id.ID) Ordinal {
	if ord, ok := o.index[pid]; ok {
		return ord
	}
	return o.Assign(pid)
}

// Release returns pid's ordinal to the free-list. Releasing an unknown
// id is a programming error.
func (o *Ordinals) Release(pid id.ID) {
	ord, ok := o.index[pid]
	if !ok {
		//replend:allow nopanic releasing an unassigned id is a programming error by design; callers hold the record they release
		panic(fmt.Sprintf("arena: releasing unassigned ordinal for %v", pid))
	}
	delete(o.index, pid)
	o.ids[ord] = id.ID{}
	o.live[ord] = false
	o.free = append(o.free, ord)
}

// ID returns the id currently holding ord, or (zero, false) if the slot
// is free or out of range.
func (o *Ordinals) ID(ord Ordinal) (id.ID, bool) {
	if ord < 0 || int(ord) >= len(o.ids) || !o.live[ord] {
		return id.ID{}, false
	}
	return o.ids[ord], true
}

// Reserve makes room for n more assignments, so a table about to take n
// identities (a restore refilling it) grows once instead of step by step.
func (o *Ordinals) Reserve(n int) {
	if n <= 0 {
		return
	}
	index := make(map[id.ID]Ordinal, len(o.index)+n)
	maps.Copy(index, o.index)
	o.index = index
	o.ids = slices.Grow(o.ids, n)
	o.live = slices.Grow(o.live, n)
}

// SortedByID returns every assigned ordinal, in ascending order of the
// identifier holding it: the one sorted walk a checkpoint export makes of
// a table.
func (o *Ordinals) SortedByID() []Ordinal {
	out := make([]Ordinal, 0, len(o.index))
	for ord, live := range o.live {
		if live {
			out = append(out, Ordinal(ord))
		}
	}
	slices.SortFunc(out, func(a, b Ordinal) int { return o.ids[a].Cmp(o.ids[b]) })
	return out
}

// Len returns the number of currently assigned ordinals.
func (o *Ordinals) Len() int { return len(o.index) }

// Cap returns the total number of slots ever allocated (live + free).
// Arena slices indexed by ordinal must hold at least Cap entries.
func (o *Ordinals) Cap() int { return len(o.ids) }

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
